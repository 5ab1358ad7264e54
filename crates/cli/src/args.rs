//! A tiny command-line option parser.
//!
//! The CLI only needs subcommands, `--flag value` options and boolean flags, so a
//! hand-rolled parser keeps the dependency set at zero and the error messages specific
//! to this tool.  A `--name` it does not know is an error, so a mistyped option never
//! passes silently.

use std::collections::HashMap;

/// Parsed command line: a subcommand, its positional arguments, and its options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument), if any.
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (keys stored without the leading dashes).
    pub options: HashMap<String, String>,
    /// Boolean `--flag` switches.
    pub flags: Vec<String>,
}

/// Option keys that take a value.
const VALUE_OPTIONS: [&str; 19] = [
    "input",
    "output",
    "program",
    "format",
    "emit",
    "out",
    "out-dir",
    "scale",
    "threads",
    "trace-out",
    "trace-folded",
    "budget-candidates",
    "budget-dfa-states",
    "budget-rows",
    "docs",
    "seed",
    "malformed-pct",
    "shard-size",
    "retries",
];

/// Boolean switches.  A `--name` in neither list is a usage error.
const SWITCHES: [&str; 4] = ["explain", "strict", "verbose", "help"];

impl ParsedArgs {
    /// Parses raw arguments (excluding the program name).
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = ParsedArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if name.is_empty() {
                    return Err("unexpected bare `--`".to_string());
                }
                // Support both `--key value` and `--key=value`.
                let (key, inline) = match name.split_once('=') {
                    Some((key, value)) => (key, Some(value)),
                    None => (name, None),
                };
                if VALUE_OPTIONS.contains(&key) {
                    let value = match inline {
                        Some(value) => value.to_string(),
                        None => iter
                            .next_if(|v| !v.starts_with("--"))
                            .ok_or_else(|| format!("option `--{key}` expects a value"))?,
                    };
                    parsed.options.insert(key.to_string(), value);
                } else if !SWITCHES.contains(&key) {
                    return Err(format!("unknown option `--{key}`"));
                } else if inline.is_some() {
                    return Err(format!("switch `--{key}` takes no value"));
                } else {
                    parsed.flags.push(key.to_string());
                }
            } else if parsed.command.is_none() {
                parsed.command = Some(arg);
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The value of a `--key value` option.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// The value of a required option, with a helpful error otherwise.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.option(key)
            .ok_or_else(|| format!("missing required option `--{key}`"))
    }

    /// True when a boolean `--flag` was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A numeric option with a default.
    pub fn numeric_option(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.option(key) {
            None => Ok(default),
            Some(text) => text
                .parse::<usize>()
                .map_err(|_| format!("option `--{key}` expects a number, got `{text}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_options_and_flags() {
        let args = ParsedArgs::parse([
            "synthesize",
            "--input",
            "doc.xml",
            "--output=example.csv",
            "--verbose",
            "extra",
        ])
        .unwrap();
        assert_eq!(args.command.as_deref(), Some("synthesize"));
        assert_eq!(args.option("input"), Some("doc.xml"));
        assert_eq!(args.option("output"), Some("example.csv"));
        assert!(args.has_flag("verbose"));
        assert_eq!(args.positional, vec!["extra"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(ParsedArgs::parse(["run", "--program"]).is_err());
        assert!(ParsedArgs::parse(["run", "--program", "--input", "x"]).is_err());
    }

    #[test]
    fn unknown_options_are_errors_that_name_the_option() {
        for args in [
            &["datasets", "--frobnicate"][..],
            &["datasets", "--thread", "2"],
            &["datasets", "--thread=2"],
            &["migrate", "yelp", "--query", "SELECT 1"],
        ] {
            let err = ParsedArgs::parse(args.iter().copied()).unwrap_err();
            let name = args.iter().find(|a| a.starts_with("--")).unwrap();
            let name = name.split('=').next().unwrap();
            assert_eq!(err, format!("unknown option `{name}`"), "{args:?}");
        }
    }

    #[test]
    fn switches_take_no_value() {
        let err = ParsedArgs::parse(["migrate", "yelp", "--strict=yes"]).unwrap_err();
        assert_eq!(err, "switch `--strict` takes no value");
        let args = ParsedArgs::parse(["run", "--explain", "--help"]).unwrap();
        assert!(args.has_flag("explain") && args.has_flag("help"));
    }

    #[test]
    fn require_reports_the_missing_key() {
        let args = ParsedArgs::parse(["run"]).unwrap();
        let err = args.require("program").unwrap_err();
        assert!(err.contains("--program"));
    }

    #[test]
    fn numeric_options_are_validated() {
        let args = ParsedArgs::parse(["corpus", "gen", "--docs", "12"]).unwrap();
        assert_eq!(args.numeric_option("docs", 100).unwrap(), 12);
        assert_eq!(args.numeric_option("scale", 200).unwrap(), 200);
        let bad = ParsedArgs::parse(["corpus", "gen", "--docs", "many"]).unwrap();
        assert!(bad.numeric_option("docs", 100).is_err());
    }

    #[test]
    fn empty_input_has_no_command() {
        let args = ParsedArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args.command, None);
    }
}
