//! `perfbench` — runs one benchmark workload and prints its metrics, or
//! compares two sets of results. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--steps T] [--pins FILE] [--out DIR]
//! perfbench --compare <DIR_A> <DIR_B>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod json;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use stats::{median, percentile, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Layer;
use workloads::{Gate, Measured, Traced, Workload};

/// The benchmark definition: workloads, metrics, units and bounds.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");
/// Digests pinned for the default run length.
const PINS: &str = include_str!("../pins.txt");

/// One metric as the manifest defines it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    fn load() -> Result<Manifest, String> {
        let root = json::parse(MANIFEST).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<Value>, String> {
            json::get(&root, key)
                .and_then(Value::as_seq)
                .map(<[Value]>::to_vec)
                .ok_or_else(|| format!("BENCHMARK.json: missing `{key}` list"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: json::str_field(m, "name")
                            .ok_or("metric without a name")?
                            .into(),
                        unit: json::str_field(m, "unit")
                            .ok_or("metric without a unit")?
                            .into(),
                        lower_is_better: json::str_field(m, "better") == Some("lower"),
                        bound: json::get(m, "bound").and_then(json::num),
                    })
                })
                .collect::<Result<_, &str>>()
                .map_err(|e| format!("BENCHMARK.json `{key}`: {e}"))
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| json::str_field(w, "name").map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steps: u32,
    pins: Option<PathBuf>,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--compare" {
            let (Some(a), Some(b)) = (argv.get(i + 1), argv.get(i + 2)) else {
                return Err("--compare needs two result directories".into());
            };
            return Ok(Command::Compare(a.into(), b.into()));
        }
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--steps",
            "--pins",
            "--out",
        ];
        if !known.contains(&flag) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
        i += 2;
    }
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; workloads: {}", names.join(", "))
    })?;
    fn number<T: std::str::FromStr>(
        flags: &BTreeMap<&str, &str>,
        flag: &str,
        default: T,
    ) -> Result<T, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        })
    }
    let trace: u8 = number(&flags, "--trace", 0)?;
    if trace > 1 {
        return Err("--trace takes 0 or 1".into());
    }
    let steps = number(&flags, "--steps", workload.default_steps())?;
    let seconds: f64 = number(&flags, "--seconds", 10.0)?;
    if steps == 0 || !(0.0..=600.0).contains(&seconds) {
        return Err("--steps must be positive and --seconds within 0..=600".into());
    }
    Ok(Command::Run(Args {
        workload,
        seed: number(&flags, "--seed", 1)?,
        seconds,
        trace: trace == 1,
        steps,
        pins: flags.get("--pins").map(PathBuf::from),
        out: flags.get("--out").map(PathBuf::from),
    }))
}

/// One reported metric: its value and the sample it summarises.
struct Reported {
    value: f64,
    sample: Summary,
}

fn single(value: f64) -> Reported {
    Reported {
        value,
        sample: Summary::of(&[value]),
    }
}

/// The median of a sample, reported with the sample's summary.
fn median_of(values: &[f64]) -> Reported {
    Reported {
        value: median(values),
        sample: Summary::of(values),
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(workload: Workload, m: &Measured) -> BTreeMap<&'static str, Reported> {
    let rounds = Summary::of(&m.rounds_us);
    let pool = workload.pool() as f64;
    let throughput: Vec<f64> = m.run_round_rates.iter().map(|r| r * pool).collect();
    BTreeMap::from([
        ("setup_s", median_of(&m.setups_s)),
        (
            "round_p50_us",
            Reported {
                value: rounds.median,
                sample: rounds,
            },
        ),
        (
            "round_tail_us",
            Reported {
                value: percentile(&m.rounds_us, workload.tail_percentile()),
                sample: rounds,
            },
        ),
        ("rounds_per_s", median_of(&throughput)),
        ("runs_per_s", median_of(&m.batch_rates)),
        ("peak_rss_mb", single(peak_rss_mb())),
    ])
}

fn per_layer(workload: Workload, m: &Measured, t: &Traced) -> BTreeMap<&'static str, Reported> {
    let mut self_ns = [0u64; trace::LAYERS];
    let mut calls = [0u64; trace::LAYERS];
    let (mut core_ns, mut idle, mut events) = (0u64, 0u64, 0u64);
    let mut walls_us = Vec::new();
    let (mut setups_us, mut generates_us) = (Vec::new(), Vec::new());
    for run in &t.runs {
        for l in 0..trace::LAYERS {
            self_ns[l] += run.self_ns[l];
            calls[l] += run.calls[l];
        }
        core_ns += run.core_self_ns;
        idle += run.idle_calls;
        events += run.events;
        walls_us.extend(run.round_walls.iter().map(|&w| w as f64 / 1e3));
        setups_us.push(run.setup_ns as f64 / 1e3);
        generates_us.push(run.generate_ns as f64 / 1e3);
    }
    let rounds = walls_us.len().max(1) as f64;
    let us = |l: Layer| single(self_ns[l as usize] as f64 / 1e3 / rounds);
    let count = |l: Layer| single(calls[l as usize] as f64 / rounds);
    BTreeMap::from([
        ("data.sample_us", us(Layer::Sample)),
        ("dp.noise_us", us(Layer::Noise)),
        ("models.loss_us", us(Layer::Loss)),
        ("models.grad_us", us(Layer::Grad)),
        ("models.eval_us", us(Layer::Eval)),
        ("attacks.forge_us", us(Layer::Forge)),
        ("gars.aggregate_us", us(Layer::Aggregate)),
        ("server.worker_self_us", us(Layer::Worker)),
        ("server.core_self_us", single(core_ns as f64 / 1e3 / rounds)),
        ("net.poll_self_us", us(Layer::Poll)),
        ("net.broadcast_us", us(Layer::Broadcast)),
        ("net.idle_calls", single(idle as f64 / rounds)),
        ("net.events_per_round", single(events as f64 / rounds)),
        ("data.generate_us", median_of(&generates_us)),
        ("core.setup_us", median_of(&setups_us)),
        (
            "core.sweep_busy_share",
            single(t.busy_s / (workload.pool() as f64 * t.wall_s)),
        ),
        (
            "host.cpu_us_per_round",
            single(m.cpu_s * 1e6 / m.rounds.max(1) as f64),
        ),
        ("data.sample_calls", count(Layer::Sample)),
        ("dp.noise_calls", count(Layer::Noise)),
        ("gars.aggregate_calls", count(Layer::Aggregate)),
        (
            "trace.overhead",
            single(median(&walls_us) / median(&m.rounds_us) - 1.0),
        ),
    ])
}

/// First line of a command's output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_block() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::map(vec![
        ("nproc", Value::U64(nproc as u64)),
        (
            "commit",
            json::s(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json::s(command_line("rustc", &["--version"]))),
    ])
}

fn write_results(
    dir: &Path,
    args: &Args,
    gate: &Gate<'_>,
    metrics: &[(&MetricDef, &Reported)],
    traced: Option<&Traced>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let metric_values = metrics
        .iter()
        .map(|(def, r)| {
            let s = r.sample;
            (
                def.name.clone(),
                json::map(vec![
                    ("value", Value::F64(r.value)),
                    ("unit", json::s(def.unit.clone())),
                    ("n", Value::U64(s.n as u64)),
                    ("min", Value::F64(s.min)),
                    ("q1", Value::F64(s.q1)),
                    ("median", Value::F64(s.median)),
                    ("q3", Value::F64(s.q3)),
                    ("max", Value::F64(s.max)),
                ]),
            )
        })
        .collect();
    let digests = gate
        .seen
        .iter()
        .map(|(&index, &digest)| {
            Value::Seq(vec![
                Value::U64(index as u64),
                Value::U64(workloads::run_seed(args.seed, index)),
                json::s(format!("{digest:#018x}")),
            ])
        })
        .collect();
    let result = json::map(vec![
        ("workload", json::s(args.workload.name())),
        ("seed", Value::U64(args.seed)),
        ("trace", Value::U64(u64::from(args.trace))),
        ("seconds", Value::F64(args.seconds)),
        ("steps", Value::U64(u64::from(args.steps))),
        ("host", host_block()),
        ("runs", Value::U64(gate.attempted)),
        ("failed", Value::U64(gate.failed)),
        ("metrics", Value::Map(metric_values)),
        ("digests", Value::Seq(digests)),
    ]);
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, json::render(result) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(first) = traced.and_then(|t| t.runs.first()) {
        let mut csv = String::from("layer,start_ns,end_ns,parent,round\n");
        for s in &first.spans {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            csv += &format!("{:?},{},{},{parent},{}\n", s.layer, s.start, s.end, s.round);
        }
        let path = dir.join(format!("{stem}-spans.csv"));
        std::fs::write(&path, csv).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn run(args: Args, manifest: &Manifest) -> Result<(), String> {
    if !manifest.workloads.iter().any(|w| w == args.workload.name()) {
        return Err(format!(
            "workload `{}` is not in BENCHMARK.json",
            args.workload.name()
        ));
    }
    let pins_text = match &args.pins {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => PINS.to_string(),
    };
    let pins = workloads::parse_pins(&pins_text)?;
    let mut gate = Gate::new(&pins, args.workload, args.seed, args.steps);

    // The traced invocation splits its time between an untraced pass (the
    // overhead and CPU baseline, and the digests to match) and the traced
    // pass.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let measured = workloads::measure(args.workload, args.seed, args.steps, untraced_s, &mut gate);
    let (mut values, defs, traced) = if args.trace {
        let traced = workloads::measure_traced(
            args.workload,
            args.seed,
            args.steps,
            args.seconds / 2.0,
            &mut gate,
        );
        (
            per_layer(args.workload, &measured, &traced),
            &manifest.per_layer,
            Some(traced),
        )
    } else {
        (
            end_to_end(args.workload, &measured),
            &manifest.end_to_end,
            None,
        )
    };

    let mut metrics = Vec::new();
    for def in defs {
        let reported = values
            .remove(def.name.as_str())
            .ok_or_else(|| format!("BENCHMARK.json metric `{}` is not measured", def.name))?;
        metrics.push((def, reported));
    }
    if let Some(name) = values.keys().next() {
        return Err(format!(
            "measured metric `{name}` is missing from BENCHMARK.json"
        ));
    }
    let metrics: Vec<(&MetricDef, &Reported)> = metrics.iter().map(|(d, r)| (*d, r)).collect();

    let correct = gate.failed == 0 && gate.attempted > 0;
    println!(
        "workload {} seed {} steps {} trace {} ({} runs, {} threads)",
        args.workload.name(),
        args.seed,
        args.steps,
        u8::from(args.trace),
        gate.attempted,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (def, r) in &metrics {
        println!("  {:<24} {:>14.4} {}", def.name, r.value, def.unit);
    }
    let failed_share = gate.failed as f64 / gate.attempted.max(1) as f64;
    println!("  {:<24} {:>14.4} share", "failed_runs", failed_share);
    if let Some(dir) = &args.out {
        write_results(dir, &args, &gate, &metrics, traced.as_ref())?;
    }
    let line = json::map(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(gate.attempted)),
        ("failed", Value::U64(gate.failed)),
        (
            "metrics",
            Value::Map(
                metrics
                    .iter()
                    .map(|(def, r)| {
                        (
                            def.name.clone(),
                            json::map(vec![
                                ("value", Value::F64(r.value)),
                                ("unit", json::s(def.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json::render(line));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Manifest::load().and_then(|manifest| match parse_args(&argv)? {
        Command::Run(args) => run(args, &manifest).map(|()| 0),
        Command::Compare(a, b) => compare::run(&a, &b, &manifest),
    });
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}
