//! The suite commands: `all`, `trace`, `repeat` and `smoke`. Each runs
//! workloads in child processes of this same binary (one workload, one
//! process: `peak_rss_mb` is the workload's own) and reads their result
//! lines back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::quartiles;
use crate::{package_dir, Opts};

/// Workloads driven by one thread, whose decisions must therefore be
/// the same in the untraced and the traced run.
const SINGLE_THREADED: [&str; 3] = ["batch_packed", "colocated_churn", "cold_start"];

struct ChildRun {
    result: Value,
    digest_line: String,
}

impl ChildRun {
    fn values(&self) -> BTreeMap<String, f64> {
        self.result
            .get("metrics")
            .and_then(Value::as_object)
            .map(|metrics| {
                metrics
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }
}

/// Runs one workload in a child process and parses the last line of its
/// standard output.
fn child(opts: &Opts) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.small {
        command.arg("--small");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last)
        .map_err(|e| format!("{}: no result line ({e}); output:\n{stdout}", opts.workload))?;
    for line in stdout.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        println!("  {line}");
    }
    if !output.status.success() {
        println!("  {} exited with {}", opts.workload, output.status);
    }
    let digest_line = stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .unwrap_or_default()
        .to_string();
    Ok(ChildRun {
        result,
        digest_line,
    })
}

fn print_table(table: &[MetricDef], values: &BTreeMap<String, f64>) {
    for def in table {
        let value = values.get(def.name).copied().unwrap_or(f64::NAN);
        println!("  {:<34} {:>16.4} {}", def.name, value, def.unit);
    }
}

fn exit(failures: usize) -> ExitCode {
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{failures} failure(s)");
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, every metric by name, every
/// check; results go to `out/results-seed<N>.json`.
pub fn all(opts: &Opts) -> ExitCode {
    let mut failures = 0;
    let mut doc = format!("{{\"seed\": {}, \"seconds\": {}", opts.seed, opts.seconds);
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_string(),
                trace,
                ..opts.clone()
            };
            println!(
                "== {workload} ({})",
                if trace { "traced" } else { "untraced" }
            );
            match child(&opts) {
                Ok(run) => {
                    let table = if trace { PER_LAYER } else { END_TO_END };
                    print_table(table, &run.values());
                    println!("  {}", run.digest_line);
                    failures += usize::from(!run.correct());
                    failures += validate_result(&run.result, trace);
                    runs.push(run);
                }
                Err(e) => {
                    println!("  {e}");
                    failures += 1;
                }
            }
        }
        if let [plain, traced] = runs.as_slice() {
            if SINGLE_THREADED.contains(&workload) && plain.digest_line != traced.digest_line {
                println!("  digests differ between the untraced and the traced run");
                failures += 1;
            }
            let _ = write!(
                doc,
                ", \"{workload}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
                values_json(&plain.values()),
                values_json(&traced.values()),
            );
        }
    }
    doc.push_str("}\n");
    let path = package_dir()
        .join("out")
        .join(format!("results-seed{}.json", opts.seed));
    match std::fs::create_dir_all(package_dir().join("out"))
        .and_then(|()| std::fs::write(&path, doc))
    {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            println!("cannot write {}: {e}", path.display());
            failures += 1;
        }
    }
    exit(failures)
}

fn values_json(values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One traced run: the per-layer table and where the spans went.
pub fn trace(opts: &Opts) -> ExitCode {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        println!("unknown workload {}", opts.workload);
        return ExitCode::from(2);
    }
    match child(opts) {
        Ok(run) => {
            print_table(PER_LAYER, &run.values());
            println!(
                "spans: {}",
                package_dir()
                    .join("out")
                    .join(format!("trace-{}.json", opts.workload))
                    .display()
            );
            exit(usize::from(!run.correct()) + validate_result(&run.result, true))
        }
        Err(e) => {
            println!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Each workload `runs` times; median and quartiles per end-to-end
/// metric; fails when a spread (interquartile range over the median,
/// the driver's rule) exceeds the metric's bound. `setup_s` is reported
/// but, as in the driver, not held to its spread. `--record` writes the
/// medians and one traced run's layer values under `baseline/`.
pub fn repeat(opts: &Opts, runs: usize, vary_seed: bool, record: bool) -> ExitCode {
    let mut failures = 0;
    let label = if vary_seed {
        format!("seeds{}-{}", opts.seed, opts.seed + runs as u64 - 1)
    } else {
        format!("seed{}", opts.seed)
    };
    let mut doc = format!(
        "{{\n\"recorded_by\": \"repeat {runs}{} --seed {} --seconds {}\"",
        if vary_seed { " --vary-seed" } else { "" },
        opts.seed,
        opts.seconds
    );
    for workload in WORKLOADS {
        println!("== {workload} × {runs} ({label})");
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let opts = Opts {
                workload: workload.to_string(),
                seed: opts.seed + if vary_seed { i as u64 } else { 0 },
                trace: false,
                ..opts.clone()
            };
            match child(&opts) {
                Ok(run) => {
                    failures += usize::from(!run.correct());
                    for (name, value) in run.values() {
                        series.entry(name).or_default().push(value);
                    }
                }
                Err(e) => {
                    println!("  {e}");
                    failures += 1;
                }
            }
        }
        let _ = write!(doc, ",\n\"{workload}\": {{\"end_to_end\": {{");
        println!(
            "  {:<18} {:>14} {:>14} {:>14} {:>9} {:>7}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (i, def) in END_TO_END.iter().enumerate() {
            let values = series.get(def.name).cloned().unwrap_or_default();
            let (q1, median, q3) = quartiles(&values);
            let spread = if median == 0.0 {
                f64::INFINITY
            } else {
                (q3 - q1) / median.abs()
            };
            let verdict = if spread <= def.bound / 3.0 {
                ""
            } else if spread <= def.bound || def.name == "setup_s" {
                "  (above a third of the bound)"
            } else {
                failures += 1;
                "  UNRESOLVED: spread exceeds the bound"
            };
            println!(
                "  {:<18} {q1:>14.4} {median:>14.4} {q3:>14.4} {spread:>9.4} {:>7.3} {}{verdict}",
                def.name, def.bound, def.unit
            );
            let every: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("  {:<18} runs: {}", "", every.join(" "));
            let _ = write!(
                doc,
                "{}\n  \"{}\": {{\"q1\": {q1}, \"median\": {median}, \"q3\": {q3}, \"unit\": \"{}\"}}",
                if i > 0 { "," } else { "" },
                def.name,
                def.unit
            );
        }
        doc.push_str("},\n \"per_layer\": ");
        if record {
            let traced = Opts {
                workload: workload.to_string(),
                trace: true,
                ..opts.clone()
            };
            match child(&traced) {
                Ok(run) => {
                    failures += usize::from(!run.correct());
                    doc.push_str(&values_json(&run.values()));
                }
                Err(e) => {
                    println!("  {e}");
                    failures += 1;
                    doc.push_str("{}");
                }
            }
        } else {
            doc.push_str("{}");
        }
        doc.push('}');
    }
    doc.push_str("\n}\n");
    if record {
        let dir = package_dir().join("baseline");
        let path = dir.join(format!("{label}.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("baseline written to {}", path.display()),
            Err(e) => {
                println!("cannot write {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    exit(failures)
}

/// Every workload at ≤ 1 s scale, untraced and traced, plus the schema:
/// result lines, metric names, table sizes, and `BENCHMARK.json`
/// against the tables in `metrics.rs`.
pub fn smoke() -> ExitCode {
    let mut failures = validate_manifest();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_string(),
                seed: 1,
                seconds: 1.0,
                trace,
                small: true,
            };
            match child(&opts) {
                Ok(run) => {
                    let bad = usize::from(!run.correct()) + validate_result(&run.result, trace);
                    println!(
                        "{workload} trace {}: {}",
                        u8::from(trace),
                        if bad == 0 { "ok" } else { "FAILED" }
                    );
                    failures += bad;
                }
                Err(e) => {
                    println!("{e}");
                    failures += 1;
                }
            }
        }
    }
    exit(failures)
}

fn name_ok(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn complain(failures: &mut usize, what: String) {
    println!("  schema: {what}");
    *failures += 1;
}

/// Checks one result line against the driver's contract.
fn validate_result(result: &Value, traced: bool) -> usize {
    let mut failures = 0;
    let table = if traced { PER_LAYER } else { END_TO_END };
    let keys: Vec<&str> = result
        .as_object()
        .map(|o| o.keys().map(String::as_str).collect())
        .unwrap_or_default();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        complain(&mut failures, format!("result keys are {keys:?}"));
    }
    let whole = |key: &str| {
        result
            .get(key)
            .and_then(Value::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
    };
    if whole("attempted").is_none_or(|v| v < 1.0) || whole("failed").is_none() {
        complain(
            &mut failures,
            "attempted/failed are not whole numbers".to_string(),
        );
    }
    let empty = BTreeMap::new();
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&empty);
    if metrics.len() != table.len() {
        complain(
            &mut failures,
            format!(
                "{} metrics reported, table has {}",
                metrics.len(),
                table.len()
            ),
        );
    }
    for def in table {
        let Some(metric) = metrics.get(def.name).and_then(Value::as_object) else {
            complain(&mut failures, format!("metric {} missing", def.name));
            continue;
        };
        let value = metric.get("value").and_then(Value::as_f64);
        let unit = metric.get("unit").and_then(Value::as_str);
        if metric.len() != 2 || unit != Some(def.unit) {
            complain(&mut failures, format!("metric {} is malformed", def.name));
        }
        match value {
            Some(v) if v.is_finite() && (traced || v != 0.0) => {}
            other => complain(&mut failures, format!("metric {} = {other:?}", def.name)),
        }
    }
    failures
}

/// Checks the tables themselves and `BENCHMARK.json` against them.
fn validate_manifest() -> usize {
    let mut failures = 0;
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        complain(
            &mut failures,
            "metric tables exceed 16 / 128 names".to_string(),
        );
    }
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if !name_ok(def.name) || !unit_ok(def.unit) || !seen.insert(def.name) {
            complain(
                &mut failures,
                format!("bad or repeated metric {} [{}]", def.name, def.unit),
            );
        }
    }
    if !END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s")
    {
        complain(
            &mut failures,
            "setup_s is not an end-to-end metric".to_string(),
        );
    }

    let path = package_dir().join("..").join("BENCHMARK.json");
    let manifest = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
    {
        Ok(v) => v,
        Err(e) => {
            complain(&mut failures, format!("{}: {e}", path.display()));
            return failures;
        }
    };
    let keys: Vec<&str> = manifest
        .as_object()
        .map(|o| o.keys().map(String::as_str).collect())
        .unwrap_or_default();
    if keys
        != [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ]
    {
        complain(&mut failures, format!("BENCHMARK.json keys are {keys:?}"));
    }
    let list = |key: &str| manifest.get(key).and_then(Value::as_array).unwrap_or(&[]);
    let names: Vec<&str> = list("workloads")
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if names != WORKLOADS {
        complain(
            &mut failures,
            format!("BENCHMARK.json workloads are {names:?}"),
        );
    }
    if list("workloads").iter().any(|w| {
        w.get("why")
            .and_then(Value::as_str)
            .is_none_or(|s| s.len() > 200 || s.contains('\n'))
    }) {
        complain(
            &mut failures,
            "a workload's why is missing or too long".to_string(),
        );
    }
    for (key, table, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let listed = list(key);
        if listed.len() != table.len() {
            complain(
                &mut failures,
                format!(
                    "BENCHMARK.json {key} lists {} metrics, table has {}",
                    listed.len(),
                    table.len()
                ),
            );
        }
        for (entry, def) in listed.iter().zip(table) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str);
            let bound = entry.get("bound").and_then(Value::as_f64);
            let same = field("name") == Some(def.name)
                && field("unit") == Some(def.unit)
                && field("better") == Some(def.better.as_str())
                && if bounded {
                    bound == Some(def.bound) && def.bound > 0.0 && def.bound <= 0.25
                } else {
                    bound.is_none()
                };
            if !same {
                complain(
                    &mut failures,
                    format!("BENCHMARK.json {key} disagrees on {}", def.name),
                );
            }
        }
    }
    let seconds = manifest.get("run_seconds").and_then(Value::as_f64);
    if seconds.is_none_or(|s| s.fract() != 0.0 || !(1.0..=60.0).contains(&s)) {
        complain(&mut failures, format!("run_seconds is {seconds:?}"));
    }
    failures
}
