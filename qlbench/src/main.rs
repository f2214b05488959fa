//! `qlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's facts and every metric by name with its unit, then,
//! as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when any answer is wrong or a statement fails.

use qlbench::{run, Options, Outcome, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    // Scratch space and outputs stay inside the working directory.
    let data_dir = PathBuf::from(".qlbench").join(format!("data-{}", std::process::id()));
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(workload),
        data_dir,
        out_dir: PathBuf::from(".qlbench").join("out"),
    })
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qlbench: {e}");
            eprintln!(
                "usage: qlbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qlbench: {e}");
            std::fs::remove_dir_all(&opts.data_dir).ok();
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in &outcome.facts {
        println!("fact {k} = {v}");
    }
    for f in &outcome.failures {
        println!("failure: {f}");
    }
    for m in outcome.metrics.iter().chain(&outcome.details) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
