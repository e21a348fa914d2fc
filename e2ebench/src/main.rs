//! The benchmark's command line. One invocation runs one workload in
//! this process and ends with the one-line JSON result the driver reads:
//!
//! ```text
//! e2ebench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!          [--reps <n>] [--smoke]
//! ```

use e2ebench::run::{build_dir, scratch_dir, Scale};
use e2ebench::trace::Trace;
use e2ebench::workloads::{self, Ctx};
use e2ebench::{metrics, sys};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    scale: Scale,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: e2ebench --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
         [--reps <n>] [--smoke]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 12,
        scale: Scale {
            seconds: 15.0,
            reps: None,
            smoke: false,
        },
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.scale.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--reps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.scale.reps = Some(n);
            }
            "--smoke" => args.scale = Scale::smoke(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.scale.seconds.is_finite() && args.scale.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before anything allocates in earnest: see `sys::pin_heap`.
    sys::pin_heap();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!("unknown workload `{}`\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        scale: args.scale,
        trace: args.trace.then(|| Arc::new(Trace::new())),
    };
    let report = (workload.run)(&ctx);

    println!(
        "workload {}  seed {}  seconds {}  trace {}  cores {}",
        workload.name,
        args.seed,
        args.scale.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &report.info {
        println!("  {line}");
    }
    let list = |xs: Vec<f64>, digits: usize| -> String {
        let cells: Vec<String> = xs.iter().map(|x| format!("{x:.digits$}")).collect();
        cells.join(" ")
    };
    println!(
        "  per repetition, frames/s: {}",
        list(report.fps_samples(), 0)
    );
    println!(
        "  per repetition, host us/frame: {}",
        list(report.host_us_samples(), 2)
    );
    println!("  per set-up, s: {}", list(report.setups.clone(), 4));
    for note in &report.checks.notes {
        println!("  FAILED {note}");
    }
    let shown = metrics::of_report(&report, args.trace);
    for (name, unit, value) in &shown {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    if let Some(trace) = &ctx.trace {
        let path = build_dir().join(format!("e2e-trace-{}.json", workload.name));
        match trace.write_json(&path) {
            Ok(n) => println!("  {n} spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(scratch_dir());

    let correct = report.checks.failed == 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            report.checks.attempted.max(1),
            report.checks.failed,
            &shown
        )
    );
    // A run that got as far as a result line exits 0 — the driver reads
    // `correct` from the line; a non-zero exit means "no result".
    ExitCode::SUCCESS
}
