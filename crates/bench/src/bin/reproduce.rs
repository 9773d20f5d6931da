//! One-command reproduction of every artefact, mirroring the paper's
//! "all our results, including the graphs, are reproducible in one
//! command" (§5.2).
//!
//! Usage:
//!   cargo run --release -p dpbyz-bench --bin reproduce             # full scale
//!   cargo run --release -p dpbyz-bench --bin reproduce -- --quick  # smoke
//!
//! Runs, in order: Figures 2–4, Table 1 (+ ResNet-50 example), the
//! Theorem 1 scaling sweeps, the hyper-parameter sweep with ablations, and
//! the §7 future-work measurements. All CSVs land in `results/` under the
//! current directory, or in `--out DIR`.

use dpbyz_bench::{arg_present, arg_value};
use std::process::Command;

fn run(bin: &str, extra: &[&str]) -> bool {
    println!("\n════════════════════════════════════════════════════════════");
    println!("  {bin} {}", extra.join(" "));
    println!("════════════════════════════════════════════════════════════");
    let mut args = vec!["run", "--release", "-p", "dpbyz-bench", "--bin", bin, "--"];
    args.extend_from_slice(extra);
    let status = Command::new(env!("CARGO"))
        .args(&args)
        .status()
        .expect("spawn cargo");
    if !status.success() {
        eprintln!("  {bin} FAILED ({status})");
    }
    status.success()
}

fn main() {
    let out = arg_value("--out");
    let out_args: Vec<&str> = out.iter().flat_map(|dir| ["--out", dir.as_str()]).collect();
    let mut extra = out_args.clone();
    if arg_present("--quick") {
        extra.push("--quick");
    }

    let mut ok = true;
    ok &= run("figures", &extra);
    ok &= run("table1", &[&["--resnet"], &out_args[..]].concat());
    ok &= run("theorem1", &extra);
    ok &= run("sweep", &extra);
    ok &= run("futurework", &extra);

    println!("\n════════════════════════════════════════════════════════════");
    if ok {
        let dir = out.as_deref().unwrap_or("results");
        println!("  all artefacts regenerated — CSVs in {dir}/, summary in EXPERIMENTS.md");
    } else {
        println!("  some artefacts FAILED — see output above");
        std::process::exit(1);
    }
}
