//! Regenerates the paper's evaluation (§VII) on the simulated targets and
//! decides its claims.
//!
//! ```text
//! repro [--fig table1|13|14|15|16|17|table2|cpu|fatbin|all] [--size small|large]
//!       [--json] [--check] [--cache-dir DIR]
//! ```
//!
//! `--fig` picks one experiment (default `all`), each at its own sweep;
//! `--size` the workload (default `small`). `--json` prints one JSON object
//! per row instead of the tables. `--check` compares the claims the run
//! decides with `crates/bench/claims.json` and exits 1 when a verdict is
//! new, missing or changed (`RESPEC_UPDATE_GOLDENS=1` rewrites them
//! instead). `--cache-dir` makes the fat-binary experiment tune into a
//! persistent store. Tuning workers come from `RESPEC_TUNE_PARALLELISM`.
use std::path::PathBuf;
use std::process::ExitCode;

use respec_bench::claims::{self, Claim};
use respec_bench::report::{Session, FIGS};
use respec_rodinia::Workload;

const USAGE: &str = "usage: repro [--fig table1|13|14|15|16|17|table2|cpu|fatbin|all] \
                     [--size small|large] [--json] [--check] [--cache-dir DIR]";

/// A parsed command line.
#[derive(Debug)]
struct Args {
    figs: Vec<&'static str>,
    workload: Workload,
    json: bool,
    check: bool,
    cache_dir: Option<PathBuf>,
}

/// Parses the arguments after the program name; any unknown flag or value
/// is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        figs: FIGS.to_vec(),
        workload: Workload::Small,
        json: false,
        check: false,
        cache_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--fig" => {
                let name = value()?;
                out.figs = match FIGS
                    .into_iter()
                    .find(|f| f.trim_start_matches("fig") == name)
                {
                    Some(fig) => vec![fig],
                    None if name == "all" => FIGS.to_vec(),
                    None => return Err(format!("unknown figure {name:?}")),
                };
            }
            "--size" => {
                out.workload = match value()?.as_str() {
                    "small" => Workload::Small,
                    "large" => Workload::Large,
                    other => return Err(format!("unknown size {other:?}")),
                };
            }
            "--json" => out.json = true,
            "--check" => out.check = true,
            "--cache-dir" => out.cache_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let options = match respec::TuneOptions::from_env() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    let committed = std::fs::read_to_string(claims::CLAIMS_PATH)
        .map_err(|e| format!("read {}: {e}", claims::CLAIMS_PATH))
        .and_then(|text| claims::parse(&text));
    let committed = match committed {
        Ok(committed) => committed,
        Err(e) if args.check => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => Vec::new(),
    };
    let size = claims::size_name(args.workload);
    let mut session = Session::new(args.workload, &options, args.cache_dir.as_deref());
    let (mut decided, mut problems) = (Vec::new(), Vec::new());
    for &fig in &args.figs {
        let tables = session.measure(fig);
        let measured = claims::measure(fig, &tables);
        let (claims, found) = claims::decide(&committed, fig, size, &measured);
        if args.json {
            tables.iter().for_each(|t| print!("{}", t.json_lines()));
        } else {
            tables.iter().for_each(|t| println!("{}", t.text()));
            if !claims.is_empty() {
                println!(
                    "Claims (crates/bench/claims.json):\n{}",
                    claims::markdown(&claims)
                );
            }
        }
        decided.extend(claims);
        problems.extend(found);
    }
    if !args.check {
        return ExitCode::SUCCESS;
    }
    for problem in &problems {
        eprintln!("repro --check: {problem}");
    }
    if std::env::var("RESPEC_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        // Replace the rows of the experiments and size this run decided.
        let ran = |c: &Claim| c.size == size && args.figs.contains(&c.figure.as_str());
        let mut all: Vec<Claim> = committed.into_iter().filter(|c| !ran(c)).collect();
        all.extend(decided);
        all.sort_by_key(|c| (c.size != "small", FIGS.iter().position(|f| *f == c.figure)));
        let text: String = all.iter().map(|c| c.json() + "\n").collect();
        if let Err(e) = std::fs::write(claims::CLAIMS_PATH, text) {
            eprintln!("repro --check: write {}: {e}", claims::CLAIMS_PATH);
            return ExitCode::FAILURE;
        }
        eprintln!(
            "repro --check: wrote {} claims to {}",
            all.len(),
            claims::CLAIMS_PATH
        );
        ExitCode::SUCCESS
    } else if problems.is_empty() {
        eprintln!(
            "repro --check: {} claims hold their verdicts",
            decided.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_are_every_figure_at_small() {
        let args = parse(&[]).expect("no arguments parse");
        assert_eq!(args.figs, FIGS.to_vec());
        assert_eq!(args.workload, Workload::Small);
        assert!(!args.json && !args.check && args.cache_dir.is_none());
    }

    #[test]
    fn every_flag_parses() {
        let args = parse(&[
            "--fig",
            "fatbin",
            "--size",
            "large",
            "--json",
            "--check",
            "--cache-dir",
            "store",
        ])
        .expect("valid command line");
        assert_eq!(args.figs, vec!["fatbin"]);
        assert_eq!(args.workload, Workload::Large);
        assert!(args.json && args.check);
        assert_eq!(args.cache_dir, Some(PathBuf::from("store")));
        for (arg, fig) in [
            ("table1", "table1"),
            ("13", "fig13"),
            ("17", "fig17"),
            ("cpu", "cpu"),
        ] {
            assert_eq!(parse(&["--fig", arg]).expect("figure").figs, vec![fig]);
        }
        assert_eq!(parse(&["--fig", "all"]).expect("all").figs, FIGS.to_vec());
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for bad in [
            &["--large"][..],
            &["--jsno"],
            &["--small"],
            &["--fig", "18"],
            &["--fig", "fig13"],
            &["--fig"],
            &["--size", "medium"],
            &["--size"],
            &["--cache-dir"],
            &["13"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
