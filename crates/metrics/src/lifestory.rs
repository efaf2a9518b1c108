//! Lifestories: per-rank activity Gantt charts.
//!
//! The paper credits Saraswat et al.'s *lifelines* paper with
//! "lifestories, a graphic representation of each process activity
//! during an execution", noting that its own trace "is very similar"
//! but is used quantitatively. This module renders the qualitative
//! view: one row per rank, time flowing left to right, `#` where the
//! rank held work and spaces where it idled — invaluable for eyeballing
//! where a scheduler's occupancy went.

use crate::trace::ActivityTrace;

/// Render a lifestory chart: `width` columns of time, one row per rank
/// (up to `max_rows` rows, evenly subsampled when there are more
/// ranks). A cell is `#` if the rank was active for at least half the
/// cell's time span, `+` if active at all, space otherwise.
pub fn render(trace: &ActivityTrace, total_ns: u64, width: usize, max_rows: usize) -> String {
    assert!(width >= 2 && max_rows >= 1, "chart too small");
    let n = trace.n_ranks();
    let total = total_ns.max(1);
    // Per-rank busy intervals.
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
    let mut open: Vec<Option<u64>> = vec![None; n as usize];
    for t in trace.transitions() {
        let r = t.rank as usize;
        match (t.active, open[r]) {
            (true, None) => open[r] = Some(t.at_ns),
            (false, Some(s)) => {
                intervals[r].push((s, t.at_ns));
                open[r] = None;
            }
            _ => {}
        }
    }
    for (r, o) in open.iter().enumerate() {
        if let Some(s) = o {
            intervals[r].push((*s, total));
        }
    }

    let rows = max_rows.min(n as usize);
    let mut out = String::with_capacity(rows * (width + 16));
    out.push_str(&format!(
        "lifestory: {} ranks over {:.3} ms ({} rows shown)\n",
        n,
        total as f64 / 1e6,
        rows
    ));
    let cell_ns = total as f64 / width as f64;
    for row in 0..rows {
        // Even subsample of ranks.
        let rank = if rows == 1 {
            0
        } else {
            (row * (n as usize - 1)) / (rows - 1)
        };
        let mut line = String::with_capacity(width);
        for col in 0..width {
            let c0 = (col as f64 * cell_ns) as u64;
            let c1 = ((col + 1) as f64 * cell_ns) as u64;
            let mut busy = 0u64;
            for &(s, e) in &intervals[rank] {
                let lo = s.max(c0);
                let hi = e.min(c1);
                if hi > lo {
                    busy += hi - lo;
                }
            }
            let span = (c1 - c0).max(1);
            line.push(if busy * 2 >= span {
                '#'
            } else if busy > 0 {
                '+'
            } else {
                ' '
            });
        }
        out.push_str(&format!("{rank:>6} |{line}|\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_trace() -> ActivityTrace {
        let mut t = ActivityTrace::new(2);
        t.record(0, 0, true);
        t.record(1, 50, true);
        t.record(0, 100, false);
        t.record(1, 100, false);
        t
    }

    #[test]
    fn rank0_full_rank1_half() {
        let chart = render(&two_rank_trace(), 100, 10, 2);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        // Rank 0 active the whole run.
        assert!(lines[1].contains("##########"), "rank 0 row: {}", lines[1]);
        // Rank 1 active in the second half only.
        let row1 = lines[2];
        let bars: String = row1.chars().skip_while(|&c| c != '|').collect();
        assert!(bars.starts_with("|     "), "rank 1 row: {row1}");
        assert!(bars.contains("#####|"), "rank 1 row: {row1}");
    }

    #[test]
    fn open_interval_extends_to_end() {
        let mut t = ActivityTrace::new(1);
        t.record(0, 40, true); // never goes idle
        let chart = render(&t, 100, 10, 1);
        let row = chart.lines().nth(1).expect("one data row");
        assert!(row.ends_with("######|"), "row: {row}");
    }

    #[test]
    fn subsampling_many_ranks() {
        let mut t = ActivityTrace::new(100);
        for r in 0..100 {
            t.record(r, 0, true);
        }
        for r in 0..100 {
            t.record(r, 10, false);
        }
        let chart = render(&t, 100, 20, 5);
        // Header + 5 rows; first row is rank 0, last is rank 99.
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[1].trim_start().starts_with('0'));
        assert!(lines[5].trim_start().starts_with("99"));
    }

    #[test]
    fn partial_cells_marked_plus() {
        let mut t = ActivityTrace::new(1);
        t.record(0, 0, true);
        t.record(0, 2, false); // 2 ns of a 100 ns run: 20% of one cell
        let chart = render(&t, 100, 10, 1);
        let row = chart.lines().nth(1).expect("data row");
        assert!(row.contains('+'), "tiny activity should render '+': {row}");
        assert!(!row.contains('#'));
    }
}
