//! `fs-benchmark`: the capacity-true, clock-separated, layer-attributed
//! crash-vs-fail-signal benchmark of fs-smr-suite.
//!
//! ```text
//! fs-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!              [--quick] [--in-flight K] [--results DIR]
//! fs-benchmark --describe        # prints BENCHMARK.json
//! ```
//!
//! One process measures one workload.  It prints every measured metric by
//! name and unit, the violated output checks if any, and — as the last line
//! of standard output — one JSON object `{correct, attempted, failed,
//! metrics}` holding the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).  A traced run also writes its spans and per-cell
//! frame counts to `DIR/trace-NAME.json`.  See `README.md`.

mod cells;
mod host;
mod report;
mod roles;
mod spans;
mod stats;
mod units;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Serialize;

use report::{ResultLine, END_TO_END, PER_LAYER};
use spans::{Span, Spans};
use workloads::{Options, Outcome, Plan, PLANS};

const USAGE: &str = "usage: fs-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--in-flight K] [--results DIR]\n       \
                     fs-benchmark --describe";

struct Args {
    plan: &'static Plan,
    opts: Options,
    results: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 2003,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        in_flight: None,
    };
    let mut results = PathBuf::from("benchmark/results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => {
                let text = value()?;
                opts.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{text}` is not a duration"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => opts.quick = true,
            "--in-flight" => {
                let k = number(value()?)?;
                opts.in_flight =
                    Some(u32::try_from(k).map_err(|_| format!("--in-flight {k} is too large"))?);
            }
            "--results" => results = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let name = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let plan = workloads::plan(&name).ok_or_else(|| {
        let known: Vec<&str> = PLANS.iter().map(|p| p.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    Ok(Args {
        plan,
        opts,
        results,
    })
}

/// One frame class of one traced cell.
#[derive(Debug, Serialize)]
struct FrameRow {
    class: String,
    frames: u64,
}

/// One traced repetition, as written to the trace file.
#[derive(Debug, Serialize)]
struct TracedCell {
    cell: String,
    trace_events: u64,
    frames_sent: u64,
    signed_outputs: u64,
    pending_events_mid_window: Option<u64>,
    fail_signal_labels: u64,
    run_until_cpu_s: f64,
    frames: Vec<FrameRow>,
}

/// One measured metric, as written to the trace file.
#[derive(Debug, Serialize)]
struct MetricRow {
    name: String,
    value: f64,
    unit: String,
}

/// `trace-<workload>.json`.
#[derive(Debug, Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    /// False for `--quick` / `--in-flight` runs, whose numbers must not be
    /// compared with a default run.
    comparable: bool,
    host_parallelism: u64,
    violations: Vec<String>,
    metrics: Vec<MetricRow>,
    cells: Vec<TracedCell>,
    spans: Vec<SpanRow>,
}

/// One span, with its self time worked out.
#[derive(Debug, Serialize)]
struct SpanRow {
    span: Span,
    /// Duration minus the part child spans cover.
    self_us: f64,
}

fn metric_rows(outcome: &Outcome) -> Vec<MetricRow> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|def| {
            outcome.values.get(def.name).map(|&value| MetricRow {
                name: def.name.to_string(),
                value,
                unit: def.unit.to_string(),
            })
        })
        .collect()
}

fn trace_file(args: &Args, outcome: &Outcome, spans: &Spans) -> TraceFile {
    let cells = outcome
        .traced
        .iter()
        .filter_map(|run| {
            let trace = run.trace.as_ref()?;
            Some(TracedCell {
                cell: run.label.clone(),
                trace_events: trace.events as u64,
                frames_sent: trace.frames.total(),
                signed_outputs: trace.frames.signed_outputs,
                pending_events_mid_window: trace.pending_events.map(|n| n as u64),
                fail_signal_labels: trace.fail_signal_labels,
                run_until_cpu_s: run.host.run_cpu_s,
                frames: trace
                    .frames
                    .sent
                    .iter()
                    .map(|(class, &frames)| FrameRow {
                        class: class.name().to_string(),
                        frames,
                    })
                    .collect(),
            })
        })
        .collect();
    TraceFile {
        workload: args.plan.name.to_string(),
        seed: args.opts.seed,
        comparable: args.opts.comparable(),
        host_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        violations: outcome.violations.clone(),
        metrics: metric_rows(outcome),
        cells,
        spans: spans
            .spans()
            .iter()
            .zip(spans.self_times_us())
            .map(|(span, self_us)| SpanRow {
                span: span.clone(),
                self_us,
            })
            .collect(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--describe"] {
        let workloads: Vec<(&str, &str)> = PLANS.iter().map(|p| (p.name, p.why)).collect();
        print!("{}", report::benchmark_json(&workloads));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let mut spans = Spans::new();
    let (outcome, _) = spans.scope("workload", "", |spans| {
        workloads::measure(args.plan, &args.opts, spans)
    });

    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.plan.name,
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.opts.trace),
        if args.opts.comparable() {
            ""
        } else {
            "  [NOT COMPARABLE: --quick or --in-flight]"
        },
    );
    println!(
        "host: {} hardware threads; simulator links: LinkModel::lan_100mbps(); \
         threaded runtime injects no delay, so its latency is processor time only",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for row in metric_rows(&outcome) {
        println!("  {:<46} {:>16.6} {}", row.name, row.value, row.unit);
    }
    println!(
        "attempted {} failed {} ({} output checks violated)",
        outcome.attempted,
        outcome.failed,
        outcome.violations.len()
    );
    for violation in &outcome.violations {
        println!("  VIOLATED {violation}");
    }

    if args.opts.trace {
        let path = args.results.join(format!("trace-{}.json", args.plan.name));
        let json = serde_json::to_string_pretty(&trace_file(&args, &outcome, &spans))
            .expect("trace file serialises");
        let written =
            std::fs::create_dir_all(&args.results).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = outcome.violations.is_empty();
    let catalogue = if args.opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let line = ResultLine::new(
        correct,
        outcome.attempted,
        outcome.failed,
        catalogue,
        &outcome.values,
    );
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serialises")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "sim_newtop_n3_small",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.plan.name, "sim_newtop_n3_small");
        assert_eq!(args.opts.seed, 7);
        assert_eq!(args.opts.seconds, 10.0);
        assert!(args.opts.trace && !args.opts.quick && args.opts.comparable());
    }

    #[test]
    fn bad_command_lines_are_refused_by_name() {
        let err = |args: &[&str]| parse_args(&strings(args)).err().unwrap();
        assert!(err(&[]).contains("--workload is required"));
        assert!(err(&["--workload", "nope"]).contains("unknown workload `nope`"));
        assert!(err(&["--workload"]).contains("needs a value"));
        assert!(err(&["--workload", "sim_newtop_n3_small", "--seed", "x"])
            .contains("not a whole number"));
        assert!(
            err(&["--workload", "sim_newtop_n3_small", "--trace", "2"]).contains("takes 0 or 1")
        );
        assert!(
            err(&["--workload", "sim_newtop_n3_small", "--seconds", "-1"])
                .contains("not a duration")
        );
        assert!(err(&["--frobnicate"]).contains("unknown argument"));
    }
}
