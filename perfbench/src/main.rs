//! `attache-perfbench --workload <stream|chase|rand|sweep> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one benchmark workload and prints
//! one JSON result line as the last line of standard output. A timed run
//! starts this binary again with `--part` for each of its parts.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match attache_perfbench::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("attache-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(part) = args.part {
        attache_perfbench::prepare_env();
        let part = attache_perfbench::timed::part(
            args.workload,
            &args.setting(),
            args.seconds,
            part.setup_rounds,
        );
        print!("{}", part.to_text());
        return ExitCode::SUCCESS;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("attache-perfbench: cannot locate its own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = attache_perfbench::run(&args, &exe);
    for p in &outcome.problems {
        eprintln!("[perfbench] FAILED {p}");
    }
    for name in outcome.metrics.non_finite() {
        eprintln!("[perfbench] FAILED metric {name} is not a finite number");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
