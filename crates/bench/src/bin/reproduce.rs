//! Prints the paper's evaluation next to ours, and keeps
//! `REPRODUCTION.json` honest.
//!
//! `cargo run --release -p vqpy-bench --bin reproduce` prints every row of
//! [`vqpy_bench::reproduce`] at the committed scale; `-- --scale 0.2` is a
//! longer manual run; `-- --write` regenerates `REPRODUCTION.json` at the
//! repo root; `-- --check` reruns the table and exits nonzero on any
//! differing cell. `--write` and `--check` always run at the compiled-in
//! scale.

use vqpy_bench::report::{ms, table};
use vqpy_bench::reproduce::{diff, render, run, Measure, Row, SCALE};

fn print(rows: &[Row]) {
    let line = |r: &Row| {
        let f1 = |f: Option<f64>| f.map_or(String::new(), |f| format!(" F1 {f:.2}"));
        let system = |m: &Measure| format!("{} {}{}", m.system, ms(m.virtual_ms), f1(m.f1));
        let systems: Vec<String> = r.systems.iter().map(system).collect();
        let band = if r.in_band() { "in band" } else { "MISSED" };
        let holds = if r.holds { "holds" } else { "FAILS" };
        let cells = [&r.id, r.paper, &format!("{:.3}", r.ours), band, holds];
        let mut cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        cells.extend([r.truth_frames.to_string(), systems.join(" | ")]);
        cells
    };
    let lines: Vec<Vec<String>> = rows.iter().map(line).collect();
    let headers = [
        "row",
        "paper",
        "ours",
        "band",
        "direction",
        "truth",
        "systems",
    ];
    table(&headers, &lines);
    for r in rows.iter().filter(|r| !r.in_band()) {
        println!("missed {}: {}", r.id, r.note);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRODUCTION.json");
    match args[..] {
        [] => print(&run(SCALE)),
        ["--scale", scale] => print(&run(scale.parse().expect("--scale takes a number"))),
        ["--write"] => {
            std::fs::write(path, render(SCALE, &run(SCALE))).expect("write REPRODUCTION.json");
            println!("wrote {path}");
        }
        ["--check"] => {
            let committed = std::fs::read_to_string(path).expect("read REPRODUCTION.json");
            let lines = diff(&committed, &render(SCALE, &run(SCALE)));
            if !lines.is_empty() {
                eprintln!("{}", lines.join("\n"));
                eprintln!(
                    "reproduce: {} cell(s) differ from REPRODUCTION.json",
                    lines.len()
                );
                std::process::exit(1);
            }
            println!("reproduce: REPRODUCTION.json matches, cell for cell");
        }
        _ => panic!("usage: reproduce [--scale <f> | --write | --check]"),
    }
}
