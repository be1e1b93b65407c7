//! `gllm-lint` CLI: run the workspace static-analysis pass.
//!
//! ```text
//! gllm-lint [--root PATH] [--deny [FAMILIES]] [--list-checks]
//! ```
//!
//! * `--root PATH`       workspace root (default: current directory)
//! * `--deny [FAMILIES]` exit nonzero on findings; FAMILIES is `all`
//!   (also the default when omitted) or a comma-separated check list
//! * `--list-checks`     print the check families and exit

use std::path::PathBuf;
use std::process::ExitCode;

use gllm_lint::{lint_workspace, Check};

struct Args {
    root: PathBuf,
    deny: Option<Vec<Check>>,
}

fn parse_deny_list(spec: &str) -> Result<Vec<Check>, String> {
    if spec == "all" {
        return Ok(Check::ALL.to_vec());
    }
    let mut out = Vec::new();
    for name in spec.split(',') {
        match Check::from_name(name.trim()) {
            Some(c) => out.push(c),
            None => return Err(format!("unknown check `{name}` in --deny list")),
        }
    }
    Ok(out)
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args { root: PathBuf::from("."), deny: None };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--list-checks" => {
                for c in Check::ALL {
                    println!("{:<18} {}", c.name(), c.describe());
                }
                return Ok(None);
            }
            "--deny" => {
                // Optional value: bare `--deny` means deny everything.
                let list = match argv.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let spec = argv.next().unwrap_or_default();
                        parse_deny_list(&spec)?
                    }
                    _ => Check::ALL.to_vec(),
                };
                args.deny = Some(list);
            }
            "--root" => match argv.next() {
                Some(p) => args.root = PathBuf::from(p),
                None => return Err("--root requires a path".to_string()),
            },
            "--help" | "-h" => {
                println!("gllm-lint [--root PATH] [--deny [all|c1,c2]] [--list-checks]");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gllm-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let violations = lint_workspace(&args.root);
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("gllm-lint: clean ({} checks)", Check::ALL.len());
    } else {
        println!("gllm-lint: {} violation(s)", violations.len());
    }
    let denied = match &args.deny {
        Some(list) => violations.iter().filter(|v| list.contains(&v.check)).count(),
        None => 0,
    };
    if denied > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
