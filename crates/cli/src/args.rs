//! A small hand-rolled flag parser (no external dependencies are available in
//! this build environment). Every error it returns is a usage error.

use crate::Failure;
use std::collections::BTreeMap;

/// Parsed command-line arguments: positionals plus `--key value` options and
/// boolean `--switch`es.
#[derive(Debug, Default)]
pub(crate) struct Parsed {
    positionals: Vec<String>,
    options: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

/// Parses `args` against the allowed `switches` (boolean flags) and `options`
/// (flags that consume the next token as their value). Options also accept
/// the inline `--name=value` form; a name listed in *both* `switches` and
/// `options` (like `--stats[=FILE]`) is a switch when bare and an option
/// when given inline — the bare form never swallows the next positional.
///
/// Unknown flags, repeated flags and options missing their value are errors —
/// a typo must never silently fall back to a default.
pub(crate) fn parse(
    args: &[String],
    switches: &'static [&'static str],
    options: &'static [&'static str],
) -> Result<Parsed, Failure> {
    let mut parsed = Parsed::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if let Some((key, value)) = name.split_once('=') {
                let Some(&option) = options.iter().find(|&&o| o == key) else {
                    return Err(Failure::usage(format!(
                        "unknown flag --{key} (or it takes no =value)"
                    )));
                };
                if parsed.options.insert(option, value.to_string()).is_some() {
                    return Err(Failure::usage(format!("option --{option} given twice")));
                }
            } else if let Some(&switch) = switches.iter().find(|&&s| s == name) {
                if parsed.switches.contains(&switch) {
                    return Err(Failure::usage(format!("flag --{switch} given twice")));
                }
                parsed.switches.push(switch);
            } else if let Some(&option) = options.iter().find(|&&o| o == name) {
                let value = iter
                    .next()
                    .ok_or_else(|| Failure::usage(format!("option --{option} expects a value")))?;
                if parsed.options.insert(option, value.clone()).is_some() {
                    return Err(Failure::usage(format!("option --{option} given twice")));
                }
            } else {
                return Err(Failure::usage(format!("unknown flag --{name}")));
            }
        } else {
            parsed.positionals.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    pub(crate) fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    pub(crate) fn get(&self, option: &str) -> Option<&str> {
        self.options.get(option).map(String::as_str)
    }

    /// The option's value parsed as `T`, or `default` when absent.
    pub(crate) fn get_or<T: std::str::FromStr>(
        &self,
        option: &str,
        default: T,
    ) -> Result<T, Failure>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(option) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|err| invalid(option, err)),
        }
    }

    /// The option's value parsed as `T`; an error when absent.
    pub(crate) fn require<T: std::str::FromStr>(&self, option: &str) -> Result<T, Failure>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self
            .get(option)
            .ok_or_else(|| Failure::usage(format!("missing required option --{option}")))?;
        raw.parse().map_err(|err| invalid(option, err))
    }
}

fn invalid(option: &str, err: impl std::fmt::Display) -> Failure {
    Failure::usage(format!("invalid value for --{option}: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_options_and_switches_parse() {
        let parsed = parse(
            &args(&["trace.jsonl", "--seed", "42", "--faulty"]),
            &["faulty"],
            &["seed"],
        )
        .unwrap();
        assert_eq!(parsed.positionals(), &["trace.jsonl".to_string()]);
        assert!(parsed.has("faulty"));
        assert_eq!(parsed.get_or::<u64>("seed", 0).unwrap(), 42);
        assert_eq!(parsed.get_or::<u64>("missing", 7).unwrap(), 7);
        assert_eq!(parsed.require::<u64>("seed").unwrap(), 42);
    }

    #[test]
    fn inline_values_and_dual_switch_options_parse() {
        // --seed=42 is equivalent to --seed 42.
        let parsed = parse(&args(&["--seed=42"]), &[], &["seed"]).unwrap();
        assert_eq!(parsed.require::<u64>("seed").unwrap(), 42);
        // A name in both lists: bare form is a switch and never consumes the
        // following positional; inline form carries a value.
        let parsed = parse(&args(&["--stats", "trace.jsonl"]), &["stats"], &["stats"]).unwrap();
        assert!(parsed.has("stats"));
        assert_eq!(parsed.get("stats"), None);
        assert_eq!(parsed.positionals(), &["trace.jsonl".to_string()]);
        let parsed = parse(&args(&["--stats=out.prom"]), &["stats"], &["stats"]).unwrap();
        assert!(!parsed.has("stats"));
        assert_eq!(parsed.get("stats"), Some("out.prom"));
        // Inline values on pure switches stay loud errors.
        assert!(parse(&args(&["--faulty=yes"]), &["faulty"], &[]).is_err());
        assert!(parse(&args(&["--seed=1", "--seed", "2"]), &[], &["seed"]).is_err());
    }

    #[test]
    fn errors_are_loud() {
        assert!(parse(&args(&["--wat"]), &[], &[]).is_err());
        assert!(parse(&args(&["--seed"]), &[], &["seed"]).is_err());
        assert!(parse(&args(&["--seed", "1", "--seed", "2"]), &[], &["seed"]).is_err());
        assert!(parse(&args(&["--faulty", "--faulty"]), &["faulty"], &[]).is_err());
        let parsed = parse(&args(&["--seed", "x"]), &[], &["seed"]).unwrap();
        assert!(parsed.get_or::<u64>("seed", 0).is_err());
        assert!(parsed.require::<u32>("missing").is_err());
    }
}
