//! # mkse-experiments — regenerating every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md §5 for the experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `exp_ranking_quality` | §5 ranking-quality comparison against Eq. (4) (E1) |
//! | `exp_fig2_histograms` | Figure 2(a) and 2(b) query-distance histograms (E2, E3) |
//! | `exp_fig3_far` | Figure 3 false accept rates (E4) |
//! | `exp_fig4_timing` | Figure 4(a) index construction and 4(b) search timings (E5, E6) |
//! | `exp_table1_communication` | Table 1 communication costs (E7) |
//! | `exp_table2_computation` | Table 2 computation costs (E8) |
//! | `exp_cao_comparison` | §8.1 comparison with Cao et al. MRSE (E9) |
//! | `exp_analytic_validation` | §6 analytic model vs. measurement (E10) |
//! | `exp_bruteforce_attack` | §4.1 brute-force attack on the shared-hash baseline (E11) |
//!
//! Every binary accepts an optional `--scale <factor>` argument (default 1.0) that shrinks or
//! grows the workload, and prints the paper's reference values next to the measured ones.
//! Run them in release mode: `cargo run --release -p mkse-experiments --bin <name>`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Parse the common `--scale <f64>` and `--seed <u64>` arguments.
///
/// Unknown arguments are ignored so binaries can add their own flags on top.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpArgs {
    /// Workload scale factor (1.0 = the paper's sizes).
    pub scale: f64,
    /// RNG seed (experiments are deterministic under a fixed seed).
    pub seed: u64,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 1.0,
            seed: 42,
        }
    }
}

impl ExpArgs {
    /// Parse from an iterator of command-line arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = ExpArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        out.scale = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        out.seed = v;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Parse from the process environment.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Scale a count, keeping at least `min`.
    pub fn scaled(&self, reference: usize, min: usize) -> usize {
        ((reference as f64 * self.scale).round() as usize).max(min)
    }
}

/// Time a closure and return `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Format a duration in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Format a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Print a section header for experiment output.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        assert_eq!(ExpArgs::parse(Vec::<String>::new()), ExpArgs::default());
        let parsed = ExpArgs::parse(
            ["--scale", "0.5", "--seed", "7", "--other", "x"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(parsed.scale, 0.5);
        assert_eq!(parsed.seed, 7);
    }

    #[test]
    fn malformed_values_fall_back_to_defaults() {
        let parsed = ExpArgs::parse(["--scale", "abc"].iter().map(|s| s.to_string()));
        assert_eq!(parsed.scale, 1.0);
    }

    #[test]
    fn scaled_respects_minimum() {
        let args = ExpArgs {
            scale: 0.001,
            seed: 1,
        };
        assert_eq!(args.scaled(1000, 10), 10);
        let args = ExpArgs {
            scale: 2.0,
            seed: 1,
        };
        assert_eq!(args.scaled(1000, 10), 2000);
    }

    #[test]
    fn timed_measures_something() {
        let (value, elapsed) = timed(|| (0..1000u64).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(elapsed.as_nanos() > 0);
        assert!(!ms(elapsed).is_empty());
        assert!(!secs(elapsed).is_empty());
    }
}
