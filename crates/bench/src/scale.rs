//! The scaling flags every experiment of `repro` takes.

/// Scaling options parsed from the command line.
///
/// * *(default)* — cardinalities sized for an 8 GB-RSS, minutes-long run.
/// * `--paper-scale` — the paper's original cardinalities (needs a 32 GB
///   class machine and patience).
/// * `--quick` — tiny smoke-test sizes (seconds; used by CI).
/// * `--scale <divisor>` — divide the default cardinalities further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleArgs {
    /// Divisor applied to default cardinalities.
    pub scale: usize,
    /// Use the paper's original cardinalities.
    pub paper: bool,
    /// Smoke-test mode.
    pub quick: bool,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        ScaleArgs {
            scale: 1,
            paper: false,
            quick: false,
        }
    }
}

impl ScaleArgs {
    /// Parse from an iterator of CLI arguments (panics on malformed input
    /// with a usage message — this is a benchmark binary).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut out = ScaleArgs::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--paper-scale" => out.paper = true,
                "--quick" => out.quick = true,
                "--scale" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| panic!("--scale needs a value"));
                    out.scale = v
                        .parse()
                        .unwrap_or_else(|_| panic!("--scale needs an integer, got {v}"));
                    assert!(out.scale >= 1, "--scale must be >= 1");
                }
                other => panic!("unknown argument {other} (try --help)"),
            }
        }
        out
    }

    /// Pick a cardinality: `paper` under `--paper-scale`, `quick` under
    /// `--quick`, else `default / scale`.
    pub fn pick(&self, paper: usize, default: usize, quick: usize) -> usize {
        if self.paper {
            paper
        } else if self.quick {
            quick
        } else {
            (default / self.scale).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ScaleArgs {
        ScaleArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let s = parse(&[]);
        assert_eq!(s, ScaleArgs::default());
        assert_eq!(s.pick(100, 10, 1), 10);
    }

    #[test]
    fn paper_scale() {
        let s = parse(&["--paper-scale"]);
        assert!(s.paper);
        assert_eq!(s.pick(100, 10, 1), 100);
    }

    #[test]
    fn quick() {
        let s = parse(&["--quick"]);
        assert_eq!(s.pick(100, 10, 1), 1);
    }

    #[test]
    fn scale_divides() {
        let s = parse(&["--scale", "5"]);
        assert_eq!(s.pick(100, 10, 1), 2);
        // Never zero.
        assert_eq!(s.pick(100, 3, 1), 1);
    }

    #[test]
    #[should_panic]
    fn unknown_flag_panics() {
        parse(&["--frobnicate"]);
    }

    fn dispatch(args: &[&str]) -> (&'static [crate::Experiment], ScaleArgs) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        crate::parse(&args)
    }

    #[test]
    fn experiment_name_selects_its_entry() {
        let (selected, s) = dispatch(&["fig2", "--quick"]);
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].0, "fig2");
        assert!(s.quick);
        let (all, s) = dispatch(&["all", "--scale", "3"]);
        assert_eq!(all.len(), crate::EXPERIMENTS.len());
        assert_eq!(s.scale, 3);
    }

    #[test]
    #[should_panic(expected = "usage: repro")]
    fn unknown_experiment_panics_with_usage() {
        dispatch(&["fig3", "--quick"]);
    }

    #[test]
    fn experiment_names_are_unique() {
        let names: std::collections::HashSet<&str> =
            crate::EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), crate::EXPERIMENTS.len());
        assert!(!names.contains("all"));
    }
}
