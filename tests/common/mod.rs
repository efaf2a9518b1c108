//! Helpers shared by the integration tests.

use dws::metrics::{SpanKind, SpanLog};

/// A span log as the five-record form printed it, for the pins
/// recorded before the victim's side of a steal became one record: the
/// record count and the `{:?}` text of the records.
///
/// The victim used to write `StealRequestRecv`, `StealReplySent` and a
/// three-field `StealServiced` back to back at one instant; each
/// `StealServiced` now stands for those three. Nothing else the rank
/// wrote came between them, so expanding each in place gives the old
/// log in the old order.
pub fn five_record_form(records: &SpanLog) -> (usize, String) {
    let mut entries = Vec::with_capacity(records.len());
    for r in records {
        let head = format!(
            "SpanRecord {{ at_ns: {}, rank: {}, trace: {}, kind: ",
            r.at_ns, r.rank, r.trace
        );
        match r.kind {
            SpanKind::StealServiced {
                thief,
                nodes,
                queue_ns,
                depart_delay_ns,
            } => entries.extend([
                format!("{head}StealRequestRecv {{ thief: {thief} }} }}"),
                format!("{head}StealReplySent {{ thief: {thief}, nodes: {nodes} }} }}"),
                format!(
                    "{head}StealServiced {{ thief: {thief}, queue_ns: {queue_ns}, \
                     depart_delay_ns: {depart_delay_ns} }} }}"
                ),
            ]),
            _ => entries.push(format!("{r:?}")),
        }
    }
    (entries.len(), format!("[{}]", entries.join(", ")))
}
