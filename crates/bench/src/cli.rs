//! Minimal shared command-line handling for the bench binaries.
//!
//! Every binary used to scan `std::env::args()` ad hoc, which meant no two
//! of them agreed on `--help` or on what an unknown flag did. This module
//! gives them one declarative surface: declare flags and valued options,
//! get usage text, `--help` handling and unknown-argument rejection for
//! free. It is deliberately tiny (no external dependency, no subcommands,
//! long options only) — exactly what eleven single-purpose bins need.
//!
//! ```
//! use sli_bench::Cli;
//!
//! let cli = Cli::new("paper", "Regenerates Figures 6-8 and Table 2")
//!     .flag("smoke", "scaled-down run for CI")
//!     .option("seed", "N", "workload RNG seed");
//! let args = cli
//!     .try_parse_from(["--smoke", "--seed", "7"].map(String::from))
//!     .unwrap();
//! assert!(args.has("smoke"));
//! assert_eq!(args.get("seed"), Some("7"));
//! assert_eq!(args.value("seed", "an integer", |n: &u64| *n > 0), Some(7));
//! ```

use std::collections::{BTreeMap, BTreeSet};

/// A declarative description of one binary's command line: its name, a
/// one-line summary, boolean flags and valued options (see the module
/// docs for an example).
#[derive(Debug, Clone)]
pub struct Cli {
    name: String,
    about: String,
    /// (name, help)
    flags: Vec<(String, String)>,
    /// (name, value placeholder, help)
    options: Vec<(String, String, String)>,
}

/// Parsed arguments: which flags were present, which options got values.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    flags: BTreeSet<String>,
    options: BTreeMap<String, String>,
}

impl CliArgs {
    /// Whether `--{name}` was present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The value given for `--{name}`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value given for `--{name}` parsed as a `T` that satisfies
    /// `valid`, or `None` if the option is absent. A value that does not
    /// parse or is not valid is reported as "needs {expected}" and the
    /// process exits with status 2, like any other malformed input.
    pub fn value<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let text = self.get(name)?;
        match text.parse() {
            Ok(value) if valid(&value) => Some(value),
            _ => {
                eprintln!("error: --{name} needs {expected}, got {text:?}");
                std::process::exit(2);
            }
        }
    }
}

/// Why parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was requested; the payload is the usage text to print.
    Help(String),
    /// An argument was not a declared flag/option; payload: the argument
    /// and the usage text.
    Unknown(String, String),
    /// A valued option came last with no value; payload: the option name
    /// and the usage text.
    MissingValue(String, String),
}

impl Cli {
    /// Starts a description for the binary `name` with a one-line summary.
    pub fn new(name: impl Into<String>, about: impl Into<String>) -> Cli {
        Cli {
            name: name.into(),
            about: about.into(),
            flags: Vec::new(),
            options: Vec::new(),
        }
    }

    /// Declares a boolean flag `--{name}`.
    pub fn flag(mut self, name: impl Into<String>, help: impl Into<String>) -> Cli {
        self.flags.push((name.into(), help.into()));
        self
    }

    /// Declares a valued option `--{name} <{placeholder}>` (also accepted
    /// as `--{name}={value}`).
    pub fn option(
        mut self,
        name: impl Into<String>,
        placeholder: impl Into<String>,
        help: impl Into<String>,
    ) -> Cli {
        self.options
            .push((name.into(), placeholder.into(), help.into()));
        self
    }

    /// The usage text `--help` prints.
    pub fn usage(&self) -> String {
        let mut out = format!(
            "{} — {}\n\nUsage: cargo run --release -p sli-bench --bin {} -- [options]\n\nOptions:\n",
            self.name, self.about, self.name
        );
        let mut rows: Vec<(String, &str)> = Vec::new();
        for (name, help) in &self.flags {
            rows.push((format!("--{name}"), help));
        }
        for (name, placeholder, help) in &self.options {
            rows.push((format!("--{name} <{placeholder}>"), help));
        }
        rows.push(("--help".to_owned(), "print this message"));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (left, help) in rows {
            out.push_str(&format!("  {left:width$}  {help}\n"));
        }
        out
    }

    /// Parses the given arguments (without the program name). Unknown
    /// arguments are errors, so typos fail loudly instead of silently
    /// running the default configuration.
    ///
    /// # Errors
    /// [`CliError::Help`] on `--help`, [`CliError::Unknown`] /
    /// [`CliError::MissingValue`] on malformed input.
    pub fn try_parse_from(
        &self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<CliArgs, CliError> {
        let mut parsed = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help(self.usage()));
            }
            let Some(body) = arg.strip_prefix("--") else {
                return Err(CliError::Unknown(arg, self.usage()));
            };
            let (name, inline_value) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_owned())),
                None => (body, None),
            };
            if inline_value.is_none() && self.flags.iter().any(|(f, _)| f == name) {
                parsed.flags.insert(name.to_owned());
            } else if self.options.iter().any(|(o, _, _)| o == name) {
                let value = match inline_value {
                    Some(v) => v,
                    None => it
                        .next()
                        .ok_or_else(|| CliError::MissingValue(name.to_owned(), self.usage()))?,
                };
                parsed.options.insert(name.to_owned(), value);
            } else {
                return Err(CliError::Unknown(arg, self.usage()));
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments, printing usage and exiting on
    /// `--help` (status 0) or malformed input (status 2).
    pub fn parse(&self) -> CliArgs {
        match self.try_parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(CliError::Help(usage)) => {
                print!("{usage}");
                std::process::exit(0);
            }
            Err(CliError::Unknown(arg, usage)) => {
                eprint!("error: unknown argument {arg:?}\n\n{usage}");
                std::process::exit(2);
            }
            Err(CliError::MissingValue(name, usage)) => {
                eprint!("error: option --{name} needs a value\n\n{usage}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Cli {
        Cli::new("t", "test binary")
            .flag("smoke", "quick run")
            .option("seed", "N", "rng seed")
    }

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        cli().try_parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_flags_and_options() {
        let a = parse(&["--smoke", "--seed", "42"]).unwrap();
        assert!(a.has("smoke"));
        assert_eq!(a.get("seed"), Some("42"));
        assert!(!a.has("seed"), "options are not flags");
        assert_eq!(a.get("smoke"), None, "flags carry no value");
    }

    #[test]
    fn equals_form_and_empty_input() {
        let a = parse(&["--seed=7"]).unwrap();
        assert_eq!(a.get("seed"), Some("7"));
        let a = parse(&[]).unwrap();
        assert!(!a.has("smoke"));
    }

    #[test]
    fn help_returns_usage_listing_everything() {
        let Err(CliError::Help(usage)) = parse(&["--help"]) else {
            panic!("--help must yield usage");
        };
        for needle in ["--smoke", "--seed <N>", "--help", "test binary"] {
            assert!(usage.contains(needle), "usage missing {needle}: {usage}");
        }
        assert!(matches!(parse(&["-h"]), Err(CliError::Help(_))));
    }

    #[test]
    fn rejects_unknown_and_missing_value() {
        assert!(matches!(
            parse(&["--smokey"]),
            Err(CliError::Unknown(a, _)) if a == "--smokey"
        ));
        assert!(matches!(
            parse(&["stray"]),
            Err(CliError::Unknown(a, _)) if a == "stray"
        ));
        assert!(matches!(
            parse(&["--seed"]),
            Err(CliError::MissingValue(n, _)) if n == "seed"
        ));
        // A flag given a value is not a valued option.
        assert!(matches!(
            parse(&["--smoke=yes"]),
            Err(CliError::Unknown(..))
        ));
    }
}
