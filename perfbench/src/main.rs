//! `crp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints a human-readable report
//! whose last line is the JSON result.

use std::process::ExitCode;

fn parse_args() -> Result<(String, u64, f64, bool), String> {
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
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crp-perfbench: {e}");
            eprintln!(
                "usage: crp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // A run that hangs (a daemon that never answers) must still end:
    // give up well after any healthy run would have finished.
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds + 120.0));
        eprintln!(
            "crp-perfbench: no result after {} s, giving up",
            seconds + 120.0
        );
        std::process::exit(3);
    });
    // Inputs, outputs and the daemon's data directory live in the
    // checkout, under a directory of this run's own.
    let dir = std::path::PathBuf::from(".perfbench_run")
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("crp-perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let result = crp_perfbench::run(&workload, seed, seconds, trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_run");
    match result {
        Ok(record) => {
            println!(
                "workload {workload} seed {seed} seconds {seconds} trace {}",
                u8::from(trace)
            );
            print!("{}", record.render(trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crp-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
