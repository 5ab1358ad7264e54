//! `compare A B`: the end-to-end metrics of two sets of runs, side by side.
//!
//! A and B are files of result lines (written with `--out`).  For every
//! workload and every end-to-end metric of `BENCHMARK.json` it prints each
//! side's median and quartiles and a verdict for B against A: better, same,
//! worse-beyond-bound, or unresolved when the run-to-run spread is wider than
//! the metric's bound.  Traced runs are ignored: their metrics have no bound.

use crate::json::{self, Json};
use crate::stats::{quartiles, verdict, Verdict};
use std::collections::BTreeMap;
use std::path::Path;

/// One bounded metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// workload → metric → values, from untraced result lines.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the untraced result lines of a file.
pub fn read_side(text: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let result = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if result.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                side.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

/// One row of the comparison: its verdict and its printed line.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub verdict: Verdict,
    pub line: String,
}

/// Compares every (workload, bounded metric) present on both sides.
pub fn compare(a: &Side, b: &Side, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for bound in bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                continue;
            };
            let v = verdict(av, bv, bound.lower_is_better, bound.bound);
            let describe = |vals: &[f64]| {
                let (q1, med, q3) = quartiles(vals);
                format!("{med:.6} [{q1:.6}, {q3:.6}] n={}", vals.len())
            };
            rows.push(Row {
                verdict: v,
                line: format!(
                    "{workload:<10} {:<18} A {}  B {}  {} ({} is better, bound {:.0}%)  {}",
                    bound.name,
                    describe(av),
                    describe(bv),
                    bound.unit,
                    if bound.lower_is_better {
                        "lower"
                    } else {
                        "higher"
                    },
                    bound.bound * 100.0,
                    v.label()
                ),
            });
        }
    }
    rows
}

/// Runs `compare A B` with the bounds of the repository's `BENCHMARK.json`;
/// exits non-zero when any metric is worse beyond its bound or unresolved.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let spec_path = crate::run::package_dir().join("../BENCHMARK.json");
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = bounds(&json::parse(&read(&spec_path)?)?)?;
    let side_a = read_side(&read(Path::new(a))?)?;
    let side_b = read_side(&read(Path::new(b))?)?;
    let rows = compare(&side_a, &side_b, &bounds);
    if rows.is_empty() {
        return Err("no workload and metric appear on both sides".to_string());
    }
    for row in &rows {
        println!("{}", row.line);
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Unresolved))
        .count();
    println!("{} comparisons, {bad} worse or unresolved", rows.len());
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, trace: bool, wall: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"metrics\": \
             {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}"
        )
    }

    #[test]
    fn compare_reads_bounds_and_sides_and_gives_verdicts() {
        let spec = json::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds(&spec).unwrap();
        assert_eq!(bounds.len(), 1);
        assert!(bounds[0].lower_is_better);

        let walls = [1.0, 1.01, 0.99, 1.0, 1.02];
        let a: Vec<String> = walls.iter().map(|&w| line("bulk_xml", false, w)).collect();
        let mut b: Vec<String> = walls
            .iter()
            .map(|&w| line("bulk_xml", false, w * 1.3))
            .collect();
        // Traced lines carry unbounded metrics and are skipped.
        b.push(line("bulk_xml", true, 100.0));
        let side_a = read_side(&a.join("\n")).unwrap();
        let side_b = read_side(&b.join("\n")).unwrap();
        assert_eq!(side_b["bulk_xml"]["wall_s"].len(), walls.len());

        let rows = compare(&side_a, &side_b, &bounds);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(
            rows[0].line.contains("worse-beyond-bound"),
            "{}",
            rows[0].line
        );
        assert_eq!(compare(&side_a, &side_a, &bounds)[0].verdict, Verdict::Same);
        assert_eq!(
            compare(&side_b, &side_a, &bounds)[0].verdict,
            Verdict::Better
        );
    }
}
