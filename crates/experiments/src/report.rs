//! Report formatting: paper-style text tables and CSV output.

use std::fmt::Write as _;

use crate::paper::Table7Row;
use crate::sweep::DesignPoint;

/// Formats a sweep as a Table 7-style block for one architecture:
/// gross size, geometry, measured ratios, and the paper's values where a
/// legible row exists.
pub fn table7_block(arch_name: &str, points: &[DesignPoint], reference: &[Table7Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{arch_name}");
    let _ = writeln!(
        out,
        "{:>6} {:>7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "gross", "blk,sub", "miss", "traffic", "nibble", "p.miss", "p.traf", "p.nib"
    );
    for p in points {
        let c = p.config;
        let reference_row = reference.iter().find(|r| {
            r.net == c.net_size() && r.block == c.block_size() && r.sub == c.sub_block_size()
        });
        let paper_cols = match reference_row {
            Some(r) => format!("{:>8.4} {:>8.4} {:>8.4}", r.miss, r.traffic, r.nibble),
            None => format!("{:>8} {:>8} {:>8}", "-", "-", "-"),
        };
        let _ = writeln!(
            out,
            "{:>6} {:>7} | {:>8.4} {:>8.4} {:>8.4} | {}",
            p.gross_size,
            format!("{},{}", c.block_size(), c.sub_block_size()),
            p.miss_ratio,
            p.traffic_ratio,
            p.nibble_traffic_ratio,
            paper_cols,
        );
    }
    out
}

/// Serialises design points to CSV (one row per point).
pub fn points_to_csv(arch_name: &str, points: &[DesignPoint]) -> String {
    let mut out =
        String::from("arch,net,block,sub,gross,miss_ratio,traffic_ratio,nibble_traffic_ratio\n");
    for p in points {
        let c = p.config;
        let _ = writeln!(
            out,
            "{arch_name},{},{},{},{},{:.6},{:.6},{:.6}",
            c.net_size(),
            c.block_size(),
            c.sub_block_size(),
            p.gross_size,
            p.miss_ratio,
            p.traffic_ratio,
            p.nibble_traffic_ratio,
        );
    }
    out
}

/// Relative error `|measured - reference| / reference`, tolerant of a zero
/// reference (returns the absolute error then).
pub fn relative_error(measured: f64, reference: f64) -> f64 {
    if reference.abs() < 1e-12 {
        (measured - reference).abs()
    } else {
        (measured - reference).abs() / reference.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::TABLE7_PDP11;
    use crate::sweep::{evaluate_point, materialize, standard_config};
    use occache_workloads::{Architecture, WorkloadSpec};

    fn sample_points() -> Vec<DesignPoint> {
        let traces = materialize(&[WorkloadSpec::pdp11_ed()], 2_000);
        vec![
            evaluate_point(
                standard_config(Architecture::Pdp11, 1024, 16, 8),
                &traces,
                0,
            ),
            evaluate_point(
                standard_config(Architecture::Pdp11, 1024, 16, 16),
                &traces,
                0,
            ),
        ]
    }

    #[test]
    fn table_block_includes_reference_values() {
        let text = table7_block("PDP-11", &sample_points(), TABLE7_PDP11);
        assert!(text.contains("PDP-11"));
        assert!(text.contains("16,8"));
        assert!(text.contains("0.0520"), "paper miss for 1024/16,8:\n{text}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = points_to_csv("PDP-11", &sample_points());
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("arch,net,block,sub"));
        assert!(lines[1].starts_with("PDP-11,1024,16,8,1264,"));
    }

    #[test]
    fn relative_error_behaviour() {
        assert!((relative_error(0.11, 0.10) - 0.1).abs() < 1e-9);
        assert_eq!(relative_error(0.05, 0.0), 0.05);
    }
}
