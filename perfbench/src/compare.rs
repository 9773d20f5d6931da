//! Compare mode: two sets of untraced results, per workload × end-to-end
//! metric, judged against the metric's bound from `BENCHMARK.json`.

use crate::json;
use crate::stats::Summary;
use crate::{Manifest, MetricDef};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Untraced results of one directory: workload → (seed, metric → value).
type ResultSet = BTreeMap<String, Vec<(u64, BTreeMap<String, f64>)>>;

fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let is_result = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with("-trace0.json"));
        if !is_result {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed), Some(metrics)) = (
            json::str_field(&result, "workload"),
            json::get(&result, "seed").and_then(json::num),
            json::get(&result, "metrics").and_then(Value::as_map),
        ) else {
            return Err(format!("{}: not a perfbench result", path.display()));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| {
                Some((name.clone(), json::get(m, "value").and_then(json::num)?))
            })
            .collect();
        set.entry(workload.to_string())
            .or_default()
            .push((seed as u64, values));
    }
    for runs in set.values_mut() {
        runs.sort_by_key(|(seed, _)| *seed);
    }
    Ok(set)
}

/// The verdict for one workload × metric, and the share of pairs won by
/// the second set.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let better = |x: f64, y: f64| if def.lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let won_share = won as f64 / pairs.max(1) as f64;
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let bound = def.bound.unwrap_or(0.0);
    // Positive when the second set is worse, as a share of the first.
    let worse_share = if def.lower_is_better {
        (sb.median - sa.median) / sa.median
    } else {
        (sa.median - sb.median) / sa.median
    };
    // Every run of the second set beats every run of the first.
    let dominates = if def.lower_is_better {
        sb.max < sa.min
    } else {
        sb.min > sa.max
    };
    let verdict = if sa.spread().max(sb.spread()) > bound && !dominates {
        "unresolved"
    } else if won_share >= 0.9
        && better(sb.median, sa.median)
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        "improved"
    } else if worse_share > bound {
        "worse"
    } else {
        "within bound"
    };
    (verdict, won_share)
}

/// Prints the comparison; exits 1 when any metric got worse.
pub fn run(dir_a: &Path, dir_b: &Path, manifest: &Manifest) -> Result<i32, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    println!(
        "{:<13} {:<14} {:>36} {:>36} {:>8} {:>5}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B-A", "won"
    );
    let mut any_worse = false;
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload}: no results in {}", dir_b.display());
            continue;
        };
        for def in &manifest.end_to_end {
            let values = |runs: &[(u64, BTreeMap<String, f64>)]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(_, m)| m.get(&def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let (verdict, won) = verdict(def, &va, &vb);
            any_worse |= verdict == "worse";
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{:<13} {:<14} {:>36} {:>36} {:>+7.2}% {:>5.2}  {verdict} (n = {}/{}, bound {})",
                workload,
                def.name,
                cell(&sa),
                cell(&sb),
                (sb.median / sa.median - 1.0) * 100.0,
                won,
                va.len(),
                vb.len(),
                def.bound.unwrap_or(0.0),
            );
        }
    }
    Ok(i32::from(any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: f64) -> MetricDef {
        MetricDef {
            name: "round_p50_us".into(),
            unit: "us".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_spread_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: within bound.
        assert_eq!(verdict(&def(0.1), &a, &a).0, "within bound");
        // Clearly faster everywhere: improved, every pair won.
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&def(0.1), &a, &faster), ("improved", 1.0));
        // 20% slower against a 10% bound: worse.
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&def(0.1), &a, &slower).0, "worse");
        // A spread wider than the bound cannot be judged.
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&def(0.1), &a, &noisy).0, "unresolved");
    }
}
