//! The one command-line flag reader every workspace binary parses with.
//!
//! A binary declares its flags by asking for them: [`Flags::value`] and
//! [`Flags::num`] for `--flag VALUE`, [`Flags::switch`] for bare
//! switches (with aliases such as `-v`/`--verbose`), then
//! [`Flags::positional`] for plain arguments, and [`Flags::finish`] to
//! refuse whatever nobody asked for. The rules are the same everywhere:
//!
//! * a value flag refuses a `--`-prefixed token in value position
//!   (`--json --seed 7` is a forgotten path, not a file named `--seed`);
//! * a flag given twice is an error, never "last one wins";
//! * an unknown flag or a leftover argument is an error;
//! * every error names the flag it is about.
//!
//! Read value flags first: a switch or positional skips the tokens a
//! value flag already took, so `--json -v` writes a file named `-v`.
//!
//! ```
//! use fieldswap_obs::cli::Flags;
//!
//! let argv = ["--seed", "7", "-v", "run.jsonl"].map(String::from);
//! let mut flags = Flags::new(argv.to_vec());
//! assert_eq!(flags.num::<u64>("--seed").unwrap(), Some(7));
//! assert_eq!(flags.value("--json").unwrap(), None);
//! assert!(flags.switch(&["--verbose", "-v"]).unwrap());
//! assert_eq!(flags.positional().as_deref(), Some("run.jsonl"));
//! flags.finish().unwrap();
//! ```

use std::str::FromStr;

/// Command-line arguments, consumed flag by flag.
pub struct Flags {
    args: Vec<String>,
    used: Vec<bool>,
}

impl Flags {
    /// A reader over `args` (without the program name).
    pub fn new(args: Vec<String>) -> Self {
        let used = vec![false; args.len()];
        Self { args, used }
    }

    /// A reader over this process's arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1).collect())
    }

    /// The position of the one unconsumed token spelled as any of
    /// `names`; two of them is an error.
    fn find(&self, names: &[&str]) -> Result<Option<usize>, String> {
        let mut hits = (0..self.args.len())
            .filter(|&i| !self.used[i] && names.contains(&self.args[i].as_str()));
        let first = hits.next();
        match hits.next() {
            Some(_) => Err(format!("{} given more than once", names.join("/"))),
            None => Ok(first),
        }
    }

    /// The value after `--name`, if the flag is present.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.find(&[name])? else {
            return Ok(None);
        };
        self.used[i] = true;
        match self.args.get(i + 1) {
            Some(v) if v.starts_with("--") => Err(format!(
                "{name} expects a value, found flag {v} (use {name} VALUE)"
            )),
            Some(v) => {
                self.used[i + 1] = true;
                Ok(Some(v.clone()))
            }
            None => Err(format!("{name} expects a value")),
        }
    }

    /// The value after `--name` parsed as a number (or any `FromStr`).
    pub fn num<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: bad value {v:?}")))
            .transpose()
    }

    /// Whether a switch spelled as any of `names` is present.
    pub fn switch(&mut self, names: &[&str]) -> Result<bool, String> {
        let hit = self.find(names)?;
        if let Some(i) = hit {
            self.used[i] = true;
        }
        Ok(hit.is_some())
    }

    /// The next unconsumed argument that is not a flag.
    pub fn positional(&mut self) -> Option<String> {
        let i = (0..self.args.len()).find(|&i| !self.used[i] && !self.args[i].starts_with('-'))?;
        self.used[i] = true;
        Some(self.args[i].clone())
    }

    /// Runs `read` over the flags, then [`finish`](Self::finish)es.
    pub fn read<T>(
        mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let out = read(&mut self)?;
        self.finish()?;
        Ok(out)
    }

    /// Refuses the first argument no flag or positional consumed.
    pub fn finish(self) -> Result<(), String> {
        match (0..self.args.len()).find(|&i| !self.used[i]) {
            None => Ok(()),
            Some(i) if self.args[i].starts_with('-') => {
                Err(format!("unknown flag {}", self.args[i]))
            }
            Some(i) => Err(format!("unexpected argument {:?}", self.args[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str) -> Flags {
        Flags::new(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn reads_values_switches_and_positionals() {
        let mut f = flags("in.jsonl --seed 7 --quantized --out -odd.json -q");
        assert_eq!(f.num::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(f.value("--out").unwrap().as_deref(), Some("-odd.json"));
        assert_eq!(f.value("--json").unwrap(), None);
        assert_eq!(f.num::<usize>("--jobs").unwrap(), None);
        assert!(f.switch(&["--quantized"]).unwrap());
        assert!(!f.switch(&["--verbose", "-v"]).unwrap());
        assert!(f.switch(&["--quiet", "-q"]).unwrap());
        assert_eq!(f.positional().as_deref(), Some("in.jsonl"));
        assert_eq!(f.positional(), None);
        f.finish().unwrap();
    }

    #[test]
    fn refuses_a_flag_in_value_position() {
        let err = flags("--out --quantized").value("--out").unwrap_err();
        assert!(
            err.contains("--out") && err.contains("--quantized"),
            "{err}"
        );
        let err = flags("--out").value("--out").unwrap_err();
        assert!(err.contains("--out") && err.contains("value"), "{err}");
    }

    #[test]
    fn refuses_a_repeated_flag() {
        let err = flags("--seed 1 --seed 2").value("--seed").unwrap_err();
        assert!(
            err.contains("--seed") && err.contains("more than once"),
            "{err}"
        );
        let err = flags("-v --verbose")
            .switch(&["--verbose", "-v"])
            .unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
    }

    #[test]
    fn refuses_a_leftover_argument() {
        let mut f = flags("--seed 1 --frobnicate");
        f.value("--seed").unwrap();
        let err = f.finish().unwrap_err();
        assert_eq!(err, "unknown flag --frobnicate");
        let mut f = flags("a.jsonl b.jsonl");
        f.positional();
        let err = f.finish().unwrap_err();
        assert!(err.contains("b.jsonl"), "{err}");
    }

    #[test]
    fn refuses_a_bad_number() {
        let err = flags("--jobs two").num::<usize>("--jobs").unwrap_err();
        assert!(err.contains("--jobs") && err.contains("two"), "{err}");
    }
}
