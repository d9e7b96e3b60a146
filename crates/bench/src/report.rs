//! Writing experiment results to the console and to JSON files.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::experiment::Figure;
use crate::measure::RunMetrics;

/// The directory experiment results are written to (`results/` under the
/// workspace root, or the current directory as a fallback).
pub fn results_dir() -> PathBuf {
    let candidate = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    candidate
}

/// Writes `figure` as pretty-printed JSON under [`results_dir`] and returns
/// the path written.
///
/// # Errors
///
/// Returns an I/O error when the results directory cannot be created or the
/// file cannot be written.
pub fn write_figure_json(figure: &Figure) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", figure.id));
    let mut file = std::fs::File::create(&path)?;
    let json = serde_json::to_string_pretty(figure).expect("figure serialises");
    file.write_all(json.as_bytes())?;
    Ok(path)
}

/// Renders a named list of runs (an ablation) as an aligned text table.
pub fn ablation_table(title: &str, rows: &[(String, RunMetrics)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!(
        "{:<20} {:>14} {:>16} {:>12}\n",
        "variant", "latency (ms)", "throughput (m/s)", "complete"
    ));
    for (name, m) in rows {
        out.push_str(&format!(
            "{:<20} {:>14.1} {:>16.1} {:>12}\n",
            name,
            m.mean_latency_ms,
            m.throughput_msgs_per_sec,
            m.is_complete()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_metrics() -> RunMetrics {
        RunMetrics {
            system: "NewTop".to_string(),
            members: 3,
            payload_size: 3,
            messages_per_member: 5,
            mean_latency_ms: 12.5,
            p95_latency_ms: 20.0,
            throughput_msgs_per_sec: 80.0,
            total_deliveries: 45,
            expected_deliveries: 45,
            middleware_messages: 500,
            finished_at_ms: 1000.0,
            fail_signals_observed: false,
        }
    }

    #[test]
    fn ablation_table_lists_variants() {
        let rows = vec![("baseline".to_string(), dummy_metrics())];
        let table = ablation_table("test", &rows);
        assert!(table.contains("baseline"));
        assert!(table.contains("12.5"));
        assert!(table.contains("true"));
    }

    #[test]
    fn results_dir_is_under_workspace() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn figure_json_round_trips() {
        let figure = Figure {
            id: "figure-test".into(),
            title: "t".into(),
            x_label: "x".into(),
            rows: vec![],
        };
        let json = serde_json::to_string(&figure).unwrap();
        let back: Figure = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "figure-test");
    }
}
