//! Command line of the DHS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric as `name = value unit`, a provenance line, and as
//! its last line one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits with 1 when an output check failed and
//! with 2 on a usage or set-up error (printing no result).

use std::process::ExitCode;
use std::time::Duration;

use dhs_perfbench::report::{json_object, json_str, result_line, unit_of};
use dhs_perfbench::{par, run, Plan, Scale, WORKLOADS};

struct Args {
    workload: String,
    plan: Plan,
}

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| bad(&e.to_string()))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("must be 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok(Args {
        workload,
        plan: Plan {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            scale: Scale::Full,
            budget: Duration::from_secs(seconds.ok_or_else(|| missing("--seconds"))?),
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    })
}

/// The commit the checkout was made from: `DHS_COMMIT`, else the `.git`
/// directory of the working directory, else "unknown".
fn commit() -> String {
    if let Ok(c) = std::env::var("DHS_COMMIT") {
        return c;
    }
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args.workload, &args.plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    for (name, value) in &outcome.metrics {
        println!("{name} = {value} {}", unit_of(name).unwrap_or("?"));
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", args.workload.clone()),
        ("seed", args.plan.seed.to_string()),
        ("trace", u8::from(args.plan.trace).to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("par_workers", par::workers().to_string()),
        ("repetitions", outcome.digests.len().to_string()),
        ("commit", commit()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
    ];
    fields.extend(outcome.sizes.iter().map(|(k, v)| (*k, v.clone())));
    println!("{{\"provenance\": {}}}", json_object(&fields));
    if !outcome.correct {
        println!(
            "{{\"problems\": [{}]}}",
            outcome
                .problems
                .iter()
                .map(|p| json_str(p))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
