//! Minimal argument parsing helpers (no external dependencies).

/// A parsed command line: positional arguments plus `--flag`/`--key value`
/// options.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    positional: Vec<String>,
    flags: Vec<String>,
    options: Vec<(String, String)>,
}

/// Option keys that take a value; everything else starting with `--` is a
/// boolean flag.
pub fn parse(argv: &[String], value_keys: &[&str]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if value_keys.contains(&key) {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.options.push((key.to_string(), v.clone()));
            } else {
                out.flags.push(key.to_string());
            }
        } else if let Some(key) = a.strip_prefix('-') {
            if value_keys.contains(&key) {
                let v = it.next().ok_or_else(|| format!("-{key} needs a value"))?;
                out.options.push((key.to_string(), v.clone()));
            } else {
                out.flags.push(key.to_string());
            }
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--key`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first flag not in `known`, if any — lets strict commands
    /// reject misspelled options instead of silently ignoring them.
    pub fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .map(String::as_str)
            .find(|f| !known.contains(f))
    }

    /// The value of `--key` parsed as `T`.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positional_flags_and_options() {
        let p = parse(
            &argv(&["a.bench", "--times", "--lg", "500", "-o", "x.txt"]),
            &["lg", "o"],
        )
        .unwrap();
        assert_eq!(p.pos(0), Some("a.bench"));
        assert!(p.flag("times"));
        assert_eq!(p.opt("lg"), Some("500"));
        assert_eq!(p.opt_parse::<usize>("lg").unwrap(), Some(500));
        assert_eq!(p.opt("o"), Some("x.txt"));
        assert_eq!(p.pos(1), None);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&argv(&["--lg"]), &["lg"]).is_err());
    }

    #[test]
    fn bad_parse_is_error() {
        let p = parse(&argv(&["--lg", "abc"]), &["lg"]).unwrap();
        assert!(p.opt_parse::<usize>("lg").is_err());
    }

    #[test]
    fn last_option_wins() {
        let p = parse(&argv(&["--lg", "1", "--lg", "2"]), &["lg"]).unwrap();
        assert_eq!(p.opt("lg"), Some("2"));
    }
}
