//! `--runs N --out FILE` records every run of every workload N times,
//! each run in a fresh process as the driver makes them; `--compare A B`
//! judges two such files against the bounds in `BENCHMARK.json`, the way
//! the driver judges two sets of runs of the same code.

use crate::gen::Workload;
use crate::json::{self, Json};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

pub fn record_runs(n: u32, out: &Path, first_seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for i in 0..n {
        for workload in Workload::ALL {
            let seed = first_seed + u64::from(i);
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout
                .lines()
                .last()
                .and_then(|l| json::parse(l).ok())
                .ok_or_else(|| {
                    format!(
                        "{} seed {seed}: no result line (exit {})",
                        workload.name(),
                        output.status
                    )
                })?;
            let correct = json::get(&result, "correct").and_then(json::as_bool) == Some(true);
            all_correct &= correct && output.status.success();
            let waited = stdout
                .lines()
                .find(|l| l.starts_with("machine speed"))
                .unwrap_or("");
            println!(
                "run {}/{n} {} seed {seed}: correct={correct}; {waited}",
                i + 1,
                workload.name()
            );
            runs.push(json::obj(vec![
                ("workload", json::text(workload.name())),
                ("seed", Json::U64(seed)),
                ("result", result),
            ]));
        }
    }
    let file = json::obj(vec![
        (
            "environment",
            json::text(crate::environment_line(first_seed, seconds)),
        ),
        ("runs", Json::Seq(runs)),
    ]);
    std::fs::write(out, json::pretty(&file) + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "{} runs written to {}",
        n * Workload::ALL.len() as u32,
        out.display()
    );
    Ok(all_correct)
}

/// workload → metric → one value per run.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &Path) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = Values::new();
    for run in json::items(json::get(&file, "runs").ok_or("no `runs` in the file")?) {
        let workload = json::get(run, "workload")
            .and_then(json::as_str)
            .ok_or("run without workload")?;
        let metrics = json::get(run, "result")
            .and_then(|r| json::get(r, "metrics"))
            .ok_or("run without metrics")?;
        for (name, m) in json::entries(metrics) {
            let v = json::get(m, "value")
                .and_then(json::as_f64)
                .ok_or("metric without value")?;
            values
                .entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(values)
}

struct Bound {
    bound: f64,
    higher_is_better: bool,
}

fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut bounds = BTreeMap::new();
    for m in json::items(json::get(&file, "end_to_end").ok_or("no `end_to_end` in BENCHMARK.json")?)
    {
        let name = json::get(m, "name")
            .and_then(json::as_str)
            .ok_or("metric without name")?;
        let bound = json::get(m, "bound")
            .and_then(json::as_f64)
            .ok_or("metric without bound")?;
        let better = json::get(m, "better")
            .and_then(json::as_str)
            .ok_or("metric without direction")?;
        bounds.insert(
            name.to_owned(),
            Bound {
                bound,
                higher_is_better: better == "higher",
            },
        );
    }
    Ok(bounds)
}

/// Spread of one set as the driver takes it: the distance between the
/// first and third quartile as a share of the median.
fn spread(q: &[f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1]
}

pub fn compare(a: &Path, b: &Path, benchmark: Option<&Path>) -> Result<bool, String> {
    let (va, vb) = (load_runs(a)?, load_runs(b)?);
    let bounds = load_bounds(benchmark.unwrap_or(Path::new("BENCHMARK.json")))?;
    println!(
        "{:<8} {:<18} {:>12} {:>12} {:>7} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
    );
    let (mut pairs, mut bad, mut within_half) = (0, 0, 0);
    for (workload, metrics) in &va {
        for (name, a_values) in metrics {
            let Some(b_values) = vb.get(workload).and_then(|m| m.get(name)) else {
                return Err(format!("{workload}/{name} is missing from {}", b.display()));
            };
            let bound = bounds
                .get(name)
                .ok_or_else(|| format!("{name} is not in BENCHMARK.json"))?;
            let (Some(qa), Some(qb)) = (quartiles(a_values), quartiles(b_values)) else {
                return Err(format!(
                    "{workload}/{name}: each file needs at least two runs"
                ));
            };
            // Positive when set B is worse than set A.
            let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
            let worse = sign * (qb[1] - qa[1]) / qa[1];
            let noisy =
                name != "setup_s" && (spread(&qa) > bound.bound || spread(&qb) > bound.bound);
            let verdict = if worse.abs() > bound.bound {
                "disagree"
            } else if noisy {
                "noisy"
            } else {
                "agree"
            };
            pairs += 1;
            bad += usize::from(verdict != "agree");
            within_half += usize::from(worse.abs() <= bound.bound / 2.0);
            println!(
                "{workload:<8} {name:<18} {:>12.5} {:>12.5} {:>6.2}% {:>6.2}% {:>+7.2}% {:>5.1}%  {verdict}",
                qa[1],
                qb[1],
                100.0 * spread(&qa),
                100.0 * spread(&qb),
                100.0 * worse,
                100.0 * bound.bound
            );
        }
    }
    println!(
        "{pairs} pairs: {} agree, {bad} do not; {within_half} ({:.0}%) differ by at most half their bound",
        pairs - bad,
        100.0 * within_half as f64 / pairs.max(1) as f64
    );
    Ok(bad == 0)
}
