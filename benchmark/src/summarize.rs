//! `e2e --summarize <tsv>`: the A/A check over the runs `run.sh --repeat` recorded.
//! For every end-to-end metric × workload it prints each set's median, quartiles and
//! relative spread (inter-quartile distance over the median, as Python's
//! `statistics.quantiles(values, n=4)` gives it) and how much worse the second set's
//! median is than the first's, against the metric's bound.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use crate::report::{self, EndToEnd};
use crate::stats;

/// `(workload, metric) → set → values`, from lines of
/// `set.run <tab> workload <tab> seed <tab> metric <tab> value <tab> unit`.
type Runs = BTreeMap<(String, String), BTreeMap<String, Vec<f64>>>;

fn parse(tsv: &str) -> Runs {
    let mut runs = Runs::new();
    for line in tsv.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let (Some(label), Some(workload), Some(metric), Some(value)) =
            (f.first(), f.get(1), f.get(3), f.get(4))
        else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let set = label.split('.').next().unwrap_or(label).to_string();
        runs.entry((workload.to_string(), metric.to_string()))
            .or_default()
            .entry(set)
            .or_default()
            .push(value);
    }
    runs
}

/// By what share of `first` the median `second` is worse, given the direction.
fn worsening(def: &EndToEnd, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if def.better == "higher" {
        -change
    } else {
        change
    }
}

struct Verdict {
    text: String,
    json: String,
    ok: bool,
}

fn judge(runs: &Runs) -> Verdict {
    let mut text = format!(
        "{:<16} {:<16} {:<4} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "set", "n", "median", "q1", "q3", "spread", "worse", "bound"
    );
    let mut entries = Vec::new();
    let mut ok = true;
    for workload in crate::WORKLOADS {
        for def in &report::END_TO_END {
            let Some(sets) = runs.get(&(workload.to_string(), def.name.to_string())) else {
                continue;
            };
            let mut first_median = None;
            for (set, values) in sets {
                let [q1, q2, q3] = stats::quartiles_exclusive(values);
                let spread = stats::relative_spread(values);
                let worse = first_median.map_or(0.0, |first| worsening(def, first, q2));
                first_median.get_or_insert(q2);
                // Set-up time is exempt from the spread limit, not from the drift one.
                let steady = def.name == "setup_s" || spread <= def.bound;
                let pass = steady && worse <= def.bound;
                ok &= pass;
                text.push_str(&format!(
                    "{workload:<16} {:<16} {set:<4} {:>3} {q2:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {worse:>8.4} {:>7.2}  {}\n",
                    def.name,
                    values.len(),
                    def.bound,
                    if pass { "ok" } else { "OUTSIDE BOUND" },
                ));
                entries.push(format!(
                    "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"set\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"worse_than_first_set\": {}, \"bound\": {}, \"within_bound\": {pass}}}",
                    report::json_str(workload),
                    report::json_str(def.name),
                    report::json_str(def.unit),
                    report::json_str(set),
                    values.len(),
                    report::num(q2),
                    report::num(q1),
                    report::num(q3),
                    report::num(spread),
                    report::num(worse),
                    def.bound,
                ));
            }
        }
    }
    Verdict {
        text,
        json: format!("[\n{}\n  ]", entries.join(",\n")),
        ok,
    }
}

pub fn run(path: &Path) -> ExitCode {
    let tsv = match fs::read_to_string(path) {
        Ok(tsv) => tsv,
        Err(e) => {
            eprintln!("e2e: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let verdict = judge(&parse(&tsv));
    print!("{}", verdict.text);
    let host = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let json = format!(
        "{{\n  \"host\": {{\"host_cpus\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}},\n  \"all_within_bounds\": {},\n  \"end_to_end\": {}\n}}\n",
        std::thread::available_parallelism().map_or(0, usize::from),
        report::json_str(&crate::procfs::kernel_release()),
        report::json_str(&host("BENCH_RUSTC")),
        report::json_str(&host("BENCH_COMMIT")),
        verdict.ok,
        verdict.json,
    );
    let out = path.with_file_name("summary.json");
    if let Err(e) = fs::write(&out, json) {
        eprintln!("e2e: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("# wrote {}", out.display());
    if verdict.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsv(rows: &[(&str, &str, &str, f64)]) -> String {
        rows.iter()
            .map(|(label, w, m, v)| format!("{label}\t{w}\t42\t{m}\t{v}\tx\n"))
            .collect()
    }

    #[test]
    fn sets_are_grouped_and_judged_against_the_bound() {
        let mut rows = Vec::new();
        for (i, v) in [100.0, 101.0, 99.0, 100.5, 99.5].iter().enumerate() {
            rows.push((format!("A.{i}"), *v));
            rows.push((format!("B.{i}"), *v * 0.95));
        }
        let rows: Vec<(&str, &str, &str, f64)> = rows
            .iter()
            .map(|(l, v)| (l.as_str(), "task_burst", "ops_per_s", *v))
            .collect();
        let runs = parse(&tsv(&rows));
        let sets = &runs[&("task_burst".to_string(), "ops_per_s".to_string())];
        assert_eq!(sets["A"].len(), 5);
        assert_eq!(sets["B"].len(), 5);
        let verdict = judge(&runs);
        assert!(
            verdict.ok,
            "5 % slower is inside the bound:\n{}",
            verdict.text
        );
        assert!(verdict.text.contains("0.0500"));
    }

    #[test]
    fn a_drift_or_a_spread_beyond_the_bound_fails_except_the_spread_of_setup() {
        let slow = tsv(&[
            ("A.0", "task_burst", "ops_per_s", 100.0),
            ("A.1", "task_burst", "ops_per_s", 100.0),
            ("B.0", "task_burst", "ops_per_s", 60.0),
            ("B.1", "task_burst", "ops_per_s", 60.0),
        ]);
        assert!(!judge(&parse(&slow)).ok, "40 % fewer ops/s is a regression");
        let noisy = |metric| {
            tsv(&[
                ("A.0", "task_burst", metric, 1.0),
                ("A.1", "task_burst", metric, 2.0),
                ("A.2", "task_burst", metric, 3.0),
            ])
        };
        assert!(!judge(&parse(&noisy("teardown_s"))).ok);
        assert!(judge(&parse(&noisy("setup_s"))).ok);
        let lower = EndToEnd {
            name: "x",
            unit: "s",
            better: "lower",
            bound: 0.1,
        };
        assert!((worsening(&lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!(parse("garbage\nA.0\tw\t1\tm\tnot-a-number\tx\n").is_empty());
    }
}
