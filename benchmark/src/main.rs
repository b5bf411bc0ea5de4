//! `e2e` — the repo benchmark: four end-to-end workloads over the production wiring,
//! per-layer probes and a traced run. See `benchmark/README.md`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     [--out-dir <dir>] [--record <tsv> --label <set.run>]
//! e2e --summarize <tsv>
//! ```
//!
//! One process runs one workload: a discarded warm-up of at least four seconds of
//! the same load, then sessions of fixed size for `--seconds`. The last line of
//! stdout is the result object `BENCHMARK.json`'s contract describes: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod gen;
mod procfs;
mod replay;
mod report;
mod stats;
mod summarize;
mod trace;
mod workloads;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Metric;
use workloads::{Ctx, Outcome};

pub const WORKLOADS: [&str; 4] = [
    "task_burst",
    "task_queue",
    "svc_roundtrip",
    "hybrid_campaign",
];

/// The host drops from a burst mode to a sustained mode about twice as slow after a
/// second or two of two busy cores; nothing is timed before that has happened.
const WARMUP: Duration = Duration::from_secs(4);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    record: Option<PathBuf>,
    label: String,
    summarize: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        record: None,
        label: "-".to_string(),
        summarize: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--label" => args.label = value()?,
            "--summarize" => args.summarize = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.summarize.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

/// Warm up, then run sessions of the workload until `--seconds` have passed. A traced
/// run alternates plain and traced sessions, so the tracing overhead is the
/// difference between halves of one run.
fn drive(args: &Args, ctx: &mut Ctx) -> f64 {
    let session: fn(&mut Ctx, usize) = match args.workload.as_str() {
        "task_burst" => workloads::task_burst,
        "task_queue" => workloads::task_queue,
        "svc_roundtrip" => workloads::svc_roundtrip,
        _ => workloads::hybrid_campaign,
    };
    let (warmup, seconds) = if args.smoke {
        (Duration::ZERO, 0.0)
    } else {
        (WARMUP, args.seconds)
    };
    let mut index = 0;
    let start = Instant::now();
    while start.elapsed() < warmup {
        session(ctx, index);
        index += 1;
    }
    ctx.measuring = true;
    let cpu_before = procfs::cpu_secs();
    let start = Instant::now();
    let mut traced_sessions = 0;
    for k in 0.. {
        ctx.traced = args.trace && k % 2 == 1;
        ctx.tracer.detail = ctx.traced && traced_sessions == 0;
        traced_sessions += usize::from(ctx.traced);
        session(ctx, index + k);
        let pair_complete = !args.trace || ctx.traced;
        if pair_complete && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    ctx.traced = false;
    procfs::cpu_secs() - cpu_before
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    report::END_TO_END
        .iter()
        .map(|def| match def.name {
            "ops_per_s" => Metric::quantile_of(def.name, def.unit, &out.unit_rate, 0.5),
            "latency_ms_p50" => Metric::quantile_of(def.name, def.unit, &out.latency_ms, 0.5),
            "latency_ms_p90" => Metric::quantile_of(def.name, def.unit, &out.latency_ms, 0.9),
            "setup_s" => Metric::quantile_of(def.name, def.unit, &out.setup_s, 0.5),
            "teardown_s" => Metric::quantile_of(def.name, def.unit, &out.teardown_s, 0.5),
            "peak_rss_mib" => {
                Metric::quantile_of(def.name, def.unit, out.peak_rss_mib.as_slice(), 0.5)
            }
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// What one `task_burst` task costs when each layer's replayed cost is multiplied by
/// how often the task path calls it — and what is left over. The remainder is stated
/// as measured, not forced to sum.
fn burst_budget(per_task_us: f64, series: &report::Series) -> (String, f64) {
    let replayed = |name: &str| stats::median(series.get(name).map_or(&[], Vec::as_slice));
    // (layer, replayed metric, calls per task, unit factor to µs)
    let rows: [(&str, &str, f64, f64); 5] = [
        (
            "executor (bare thread)",
            "executor.thread_spawn_ref_us",
            1.0,
            1.0,
        ),
        (
            "scheduler + platform.batch",
            "scheduler.alloc_release_ns",
            1.0,
            1e-3,
        ),
        ("records", "records.transition_ns", 1.0, 1e-3),
        (
            "comm.pubsub (0 subscribers)",
            "comm.pubsub.publish0_ns",
            3.0,
            1e-3,
        ),
        ("sim.metrics", "sim.metrics.record_ns", 6.0, 1e-3),
    ];
    let mut text = format!(
        "task_burst budget per task ({per_task_us:.2} us measured, wave wall time / tasks)\n"
    );
    let mut attributed = 0.0;
    for (layer, metric, calls, to_us) in rows {
        let cost = replayed(metric) * to_us * calls;
        attributed += cost;
        text.push_str(&format!(
            "  {layer:<30} {calls:>3.0} x {metric:<32} {cost:>9.3} us  {:>5.1} %\n",
            100.0 * cost / per_task_us
        ));
    }
    let rest = per_task_us - attributed;
    text.push_str(&format!(
        "  {:<30} {:<38} {rest:>9.3} us  {:>5.1} %\n",
        "unattributed",
        "(thread wake-ups, contention, waiting)",
        100.0 * rest / per_task_us
    ));
    (text, rest)
}

fn host_json(args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"host_cpus\": {cpus}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}}}",
        report::json_str(&procfs::kernel_release()),
        report::json_str(&env("BENCH_RUSTC")),
        report::json_str(&env("BENCH_COMMIT")),
        args.seed,
        report::num(args.seconds),
        args.smoke,
    )
}

fn write_outputs(
    args: &Args,
    ctx: &Ctx,
    e2e: &[Metric],
    layers: &[Metric],
    correct: bool,
) -> std::io::Result<()> {
    fs::create_dir_all(&args.out_dir)?;
    let suffix = if args.trace { ".traced" } else { "" };
    let problems: Vec<String> = ctx
        .out
        .problems
        .iter()
        .map(|p| report::json_str(p))
        .collect();
    let body = format!(
        "{{\n  \"workload\": {},\n  \"traced\": {},\n  \"host\": {},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        report::json_str(&args.workload),
        args.trace,
        host_json(args),
        ctx.out.attempted,
        ctx.out.failed,
        problems.join(", "),
        report::metrics_json(e2e),
        report::metrics_json(layers),
    );
    fs::write(
        args.out_dir.join(format!("{}{suffix}.json", args.workload)),
        body,
    )?;
    if args.trace {
        fs::write(
            args.out_dir.join(format!("trace.{}.json", args.workload)),
            ctx.tracer.chrome_json(&args.workload),
        )?;
    }
    if let Some(path) = &args.record {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        for m in if args.trace { layers } else { e2e } {
            writeln!(
                file,
                "{}\t{}\t{}\t{}\t{}\t{}",
                args.label,
                args.workload,
                args.seed,
                m.name,
                report::num(m.value),
                m.unit
            )?;
        }
    }
    Ok(())
}

fn run(args: &Args) -> ExitCode {
    let sizes = if args.smoke {
        gen::Sizes::smoke()
    } else {
        gen::Sizes::full()
    };
    let mut ctx = Ctx {
        seed: args.seed,
        sizes,
        clients: std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(gen::SVC_MAX_CLIENTS),
        tracer: trace::Tracer::new(),
        out: Outcome::default(),
        measuring: false,
        traced: false,
    };
    let cpu_secs = drive(args, &mut ctx);

    let workload = args.workload.as_str();
    if args.trace {
        ctx.tracer.recording = true;
        ctx.tracer.session = 0;
        let replays = replay::run_all(&mut ctx.tracer, ctx.sizes.replay_ops);
        ctx.tracer.recording = false;
        let series = &mut ctx.out.series;
        for (name, value) in replays {
            series.entry(name).or_default().push(value);
        }
        let plain = stats::median(&ctx.out.unit_secs_plain);
        let traced = stats::median(&ctx.out.unit_secs_traced);
        if plain > 0.0 {
            series
                .entry("trace.overhead_pct")
                .or_default()
                .push(100.0 * (traced - plain) / plain);
        }
        if ctx.out.ops > 0 {
            series
                .entry("process.cpu_us_per_op")
                .or_default()
                .push(cpu_secs * 1e6 / ctx.out.ops as f64);
        }
        if workload == "task_burst" {
            let per_task_us = traced * 1e6 / ctx.sizes.burst_wave as f64;
            let (text, rest) = burst_budget(per_task_us, series);
            series
                .entry("executor.unattributed_us_per_task")
                .or_default()
                .push(rest);
            print!("{text}");
        }
        println!("span                                       count     total_ms      self_ms");
        for (name, t) in ctx.tracer.totals() {
            println!(
                "{name:<42} {:>5} {:>12.3} {:>12.3}",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
    }

    let e2e = end_to_end(&ctx.out);
    let layers = if args.trace {
        report::per_layer(&ctx.out.series)
    } else {
        Vec::new()
    };
    let correct = ctx.out.failed == 0 && ctx.out.attempted > 0;
    println!(
        "# {workload} seed={} seconds={} trace={} smoke={} sessions: {} plain + {} traced units",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        ctx.out.unit_secs_plain.len(),
        ctx.out.unit_secs_traced.len()
    );
    println!("# name workload value unit n p25 p75");
    for m in e2e.iter().chain(&layers) {
        println!("{}", report::row(m, workload));
    }
    println!(
        "# attempted={} succeeded={} failed={} failed_share={}",
        ctx.out.attempted,
        ctx.out.attempted.saturating_sub(ctx.out.failed),
        ctx.out.failed,
        ctx.out.failed as f64 / ctx.out.attempted.max(1) as f64
    );
    for p in &ctx.out.problems {
        println!("# FAILED CHECK: {p}");
    }
    if let Err(e) = write_outputs(args, &ctx, &e2e, &layers, correct) {
        eprintln!(
            "e2e: cannot write outputs under {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    // A smoke run checks outputs only; it records no numbers.
    if args.smoke {
        println!(
            "smoke {workload}: {}",
            if correct { "ok" } else { "FAILED" }
        );
    } else {
        let metrics = if args.trace { &layers } else { &e2e };
        println!(
            "{}",
            report::result_line(correct, ctx.out.attempted, ctx.out.failed, metrics)
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.summarize {
        Some(path) => summarize::run(path),
        None => run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload task_queue --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "task_queue");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 12.0, true, false)
        );
        let d = parse_args(&argv("--workload task_burst")).unwrap();
        assert_eq!((d.seed, d.trace), (42, false));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload task_burst --trace 2")).is_err());
        assert!(parse_args(&argv("--workload task_burst --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload task_burst --seed")).is_err());
        assert!(parse_args(&argv("--summarize runs.tsv")).is_ok());
    }

    #[test]
    fn burst_budget_states_the_remainder_it_measures() {
        let mut series = report::Series::new();
        series.insert("executor.thread_spawn_ref_us", vec![20.0]);
        series.insert("scheduler.alloc_release_ns", vec![500.0]);
        series.insert("records.transition_ns", vec![1000.0]);
        series.insert("comm.pubsub.publish0_ns", vec![100.0]);
        series.insert("sim.metrics.record_ns", vec![50.0]);
        let (text, rest) = burst_budget(80.0, &series);
        // 20 + 0.5 + 1.0 + 3·0.1 + 6·0.05 = 22.1 µs attributed.
        assert!((rest - 57.9).abs() < 1e-9, "{rest}");
        assert!(text.contains("unattributed"));
        assert_eq!(text.lines().count(), 7);
    }
}
