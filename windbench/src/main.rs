//! `windbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, one line per metric (with sample counts),
//! and as its last line one JSON object:
//! `{"correct": true, "attempted": N, "failed": N, "metrics": {...}}`.
//! A failed output check prints the reason on stderr and exits 1 without
//! a result.

use std::process::ExitCode;

use windbench::{host, report, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("error: {usage}");
            eprintln!(
                "usage: windbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                windbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::measure();
    println!("host: {}", fingerprint.to_json());
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, spans) = match windbench::run(&args) {
        Ok(done) => done,
        Err(failure) => {
            eprintln!("check failed: {failure}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .spans_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = spans.write_chrome(&path) {
            eprintln!("error: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            spans.spans().len(),
            path.display()
        );
    }
    match report::render(&outcome, args.trace) {
        Ok((lines, result)) => {
            for line in lines {
                println!("{line}");
            }
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("check failed: {why}");
            ExitCode::FAILURE
        }
    }
}
