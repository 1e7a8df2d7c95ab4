//! Command-line options shared by every experiment of the one
//! `tactic-experiments` binary (`simulate` has its own flag surface, see
//! [`crate::scenario_args`]).
//!
//! Every experiment accepts:
//!
//! * `--paper` — full paper scale (2000 s, 5 seeds, paper BF sizes);
//! * `--duration <secs>` — override the simulated duration;
//! * `--seeds <n>` — seeds to average over;
//! * `--topo <list>` — comma-separated topology indices (e.g. `1,2`);
//! * `--out <dir>` — output directory for CSV files (default `results/`);
//! * `--threads <n>` — worker threads for the run grid (default: all
//!   available cores). Results are byte-identical for any value;
//! * `--shards <list>` — intra-run shard counts (default `1`). Each run
//!   is space-partitioned across that many conservatively-synchronized
//!   engine threads; results are byte-identical for any count, so a
//!   multi-entry list (`--shards 1,4`) is a live determinism check:
//!   every run executes at every listed count, the reports are
//!   byte-compared against the first (see [`crate::plane::run_job`]) and
//!   the last entry's provenance lands in the manifests. `scale` alone
//!   takes the list as a grid axis, one count per cell;
//! * `--ramp <list>` — the size ramp of `scale` (total nodes) and
//!   `tagscale` (clients per router), replacing `1000,10000,100000`;
//! * `--quiet` / `--verbose` — silence the per-run stderr progress lines,
//!   or add per-run detail to them. Stdout and files are unaffected.
//!
//! Every experiment that simulates writes one provenance line per run to
//! `<stem>.manifest.jsonl` next to its artifacts.

use std::path::PathBuf;

use tactic_topology::paper::PaperTopology;

/// How chatty the runner's stderr progress stream is. Never affects
/// stdout, CSV files, or determinism — progress is stderr-only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verbosity {
    /// No per-run progress lines.
    Quiet,
    /// One progress line per finished run (the default).
    #[default]
    Normal,
    /// Progress lines plus per-run event/queue detail.
    Verbose,
}

impl Verbosity {
    /// Whether per-run progress lines should be printed at all.
    pub fn progress(self) -> bool {
        self != Verbosity::Quiet
    }

    /// Whether per-run detail (events, peak queue depth) is wanted.
    pub fn detailed(self) -> bool {
        self == Verbosity::Verbose
    }
}

/// Parsed experiment options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Full paper scale.
    pub paper: bool,
    /// Simulated seconds (None = experiment default).
    pub duration_secs: Option<u64>,
    /// Seeds to average over (None = experiment default).
    pub seeds: Option<usize>,
    /// Topologies to run.
    pub topologies: Vec<PaperTopology>,
    /// CSV output directory.
    pub out_dir: PathBuf,
    /// Worker threads for the run grid (None = all available cores).
    pub threads: Option<usize>,
    /// Shard (intra-run worker) counts to run, in order. Each run is
    /// space-partitioned across this many threads; results are
    /// byte-identical for every entry, so a multi-entry list is a
    /// determinism check, not a sweep.
    pub shards: Vec<usize>,
    /// The size ramp of `scale` (total nodes) and `tagscale` (clients
    /// per router); `None` = [`DEFAULT_RAMP`].
    pub ramp: Option<Vec<usize>>,
    /// Deterministic sim-time sampling period in seconds (`--sample-every`;
    /// `None` = sampler off, zero cost).
    pub sample_every_secs: Option<f64>,
    /// Collect wall-clock span profiles (`--profile`). Never changes
    /// results — profile artifacts are non-golden.
    pub profile: bool,
    /// stderr progress verbosity.
    pub verbosity: Verbosity,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            paper: false,
            duration_secs: None,
            seeds: None,
            topologies: PaperTopology::ALL.to_vec(),
            out_dir: PathBuf::from("results"),
            threads: None,
            shards: vec![1],
            ramp: None,
            sample_every_secs: None,
            profile: false,
            verbosity: Verbosity::Normal,
        }
    }
}

/// The flags every experiment accepts, as the usage line shows them.
pub const FLAGS: &str = "[--paper] [--duration SECS] [--seeds N] [--topo 1,2,3,4] [--out DIR] \
     [--threads N] [--shards K1,K2] [--ramp N1,N2] [--sample-every SECS] [--profile] \
     [--quiet|--verbose]";

/// The ramp `scale` and `tagscale` run when `--ramp` is not given.
pub const DEFAULT_RAMP: [usize; 3] = [1_000, 10_000, 100_000];

/// Parses a comma-separated list of positive counts (`--shards`,
/// `--ramp`); `noun` names one entry in the error message.
fn positive_list(flag: &str, noun: &str, v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|part| match part.trim().parse::<usize>() {
            Ok(0) => Err(format!("{flag} entries must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("bad {noun} `{part}`")),
        })
        .collect()
}

impl RunOpts {
    /// Parses options from an argument iterator (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<RunOpts, String> {
        let mut opts = RunOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper" => opts.paper = true,
                "--duration" => {
                    let v = it.next().ok_or("--duration needs a value")?;
                    opts.duration_secs =
                        Some(v.parse().map_err(|_| format!("bad duration `{v}`"))?);
                }
                "--seeds" => {
                    let v = it.next().ok_or("--seeds needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad seed count `{v}`"))?;
                    if n == 0 {
                        return Err("--seeds must be at least 1".into());
                    }
                    opts.seeds = Some(n);
                }
                "--topo" => {
                    let v = it.next().ok_or("--topo needs a value")?;
                    let mut topos = Vec::new();
                    for part in v.split(',') {
                        let idx: usize = part
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad topology `{part}`"))?;
                        let topo = PaperTopology::ALL
                            .get(idx.wrapping_sub(1))
                            .ok_or(format!("topology index {idx} out of range 1-4"))?;
                        topos.push(*topo);
                    }
                    if topos.is_empty() {
                        return Err("--topo needs at least one index".into());
                    }
                    opts.topologies = topos;
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    opts.threads = Some(n);
                }
                "--shards" => {
                    let v = it.next().ok_or("--shards needs a value")?;
                    opts.shards = positive_list("--shards", "shard count", &v)?;
                }
                "--ramp" => {
                    let v = it.next().ok_or("--ramp needs a value")?;
                    opts.ramp = Some(positive_list("--ramp", "ramp point", &v)?);
                }
                "--sample-every" => {
                    let v = it.next().ok_or("--sample-every needs a value")?;
                    let secs: f64 = v.parse().map_err(|_| format!("bad sample period `{v}`"))?;
                    if secs.is_nan() || secs <= 0.0 {
                        return Err("--sample-every must be positive".into());
                    }
                    opts.sample_every_secs = Some(secs);
                }
                "--profile" => opts.profile = true,
                "--quiet" | "-q" => opts.verbosity = Verbosity::Quiet,
                "--verbose" | "-v" => opts.verbosity = Verbosity::Verbose,
                other => return Err(format!("unknown argument `{other}`; flags: {FLAGS}")),
            }
        }
        Ok(opts)
    }

    /// The simulated duration: explicit override, else paper/reduced default.
    pub fn duration(&self, reduced_default: u64) -> u64 {
        self.duration_secs
            .unwrap_or(if self.paper { 2_000 } else { reduced_default })
    }

    /// The seed count: explicit override, else paper (5) / reduced default.
    pub fn seed_count(&self, reduced_default: usize) -> usize {
        self.seeds
            .unwrap_or(if self.paper { 5 } else { reduced_default })
    }

    /// Worker threads for the run grid: explicit override, else every
    /// available core. The thread count never changes results, only
    /// wall-clock time.
    pub fn thread_count(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The size ramp: `--ramp`, else [`DEFAULT_RAMP`].
    pub fn ramp(&self) -> Vec<usize> {
        self.ramp.clone().unwrap_or_else(|| DEFAULT_RAMP.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert!(!o.paper);
        assert_eq!(o.topologies.len(), 4);
        assert_eq!(o.duration(60), 60);
        assert_eq!(o.seed_count(2), 2);
    }

    #[test]
    fn paper_flag_switches_defaults() {
        let o = parse(&["--paper"]).unwrap();
        assert_eq!(o.duration(60), 2_000);
        assert_eq!(o.seed_count(2), 5);
    }

    #[test]
    fn explicit_overrides_win() {
        let o = parse(&["--paper", "--duration", "300", "--seeds", "3"]).unwrap();
        assert_eq!(o.duration(60), 300);
        assert_eq!(o.seed_count(2), 3);
    }

    #[test]
    fn topo_filter() {
        let o = parse(&["--topo", "1,3"]).unwrap();
        assert_eq!(
            o.topologies,
            vec![PaperTopology::Topo1, PaperTopology::Topo3]
        );
        assert!(parse(&["--topo", "5"]).is_err());
        assert!(parse(&["--topo", "x"]).is_err());
    }

    #[test]
    fn bad_args_error() {
        assert!(parse(&["--duration"]).is_err());
        let unknown = parse(&["--bogus"]).unwrap_err();
        assert!(unknown.contains("`--bogus`") && unknown.contains("--shards K1,K2"));
        assert_eq!(
            parse(&["--seeds", "0"]).unwrap_err(),
            "--seeds must be at least 1"
        );
    }

    #[test]
    fn out_dir() {
        let o = parse(&["--out", "/tmp/x"]).unwrap();
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn verbosity_flags() {
        assert_eq!(parse(&[]).unwrap().verbosity, Verbosity::Normal);
        assert_eq!(parse(&["--quiet"]).unwrap().verbosity, Verbosity::Quiet);
        assert_eq!(parse(&["--verbose"]).unwrap().verbosity, Verbosity::Verbose);
        assert_eq!(parse(&["-q"]).unwrap().verbosity, Verbosity::Quiet);
        assert_eq!(parse(&["-v"]).unwrap().verbosity, Verbosity::Verbose);
        assert!(!Verbosity::Quiet.progress());
        assert!(Verbosity::Normal.progress());
        assert!(!Verbosity::Normal.detailed());
        assert!(Verbosity::Verbose.detailed());
    }

    #[test]
    fn shards_flag() {
        assert_eq!(parse(&[]).unwrap().shards, vec![1]);
        assert_eq!(parse(&["--shards", "4"]).unwrap().shards, vec![4]);
        assert_eq!(parse(&["--shards", "1,4"]).unwrap().shards, vec![1, 4]);
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "x"]).is_err());
        assert!(parse(&["--shards", ""]).is_err());
        assert!(parse(&["--shards"]).is_err());
    }

    /// `--ramp` fails the way `--shards` does, entry for entry.
    #[test]
    fn ramp_flag() {
        assert_eq!(parse(&[]).unwrap().ramp(), DEFAULT_RAMP);
        assert_eq!(parse(&["--ramp", "40, 160"]).unwrap().ramp(), [40, 160]);
        for (bad, shards_says) in [
            ("", "bad shard count ``"),
            ("0", "--shards entries must be at least 1"),
            ("16,x", "bad shard count `x`"),
            ("16,,48", "bad shard count ``"),
        ] {
            assert_eq!(parse(&["--shards", bad]).unwrap_err(), shards_says);
            let ramp_says = shards_says
                .replace("--shards", "--ramp")
                .replace("shard count", "ramp point");
            assert_eq!(parse(&["--ramp", bad]).unwrap_err(), ramp_says);
        }
        assert_eq!(parse(&["--ramp"]).unwrap_err(), "--ramp needs a value");
    }

    #[test]
    fn sampler_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.sample_every_secs, None);
        assert!(!o.profile);
        let o = parse(&["--sample-every", "0.5", "--profile"]).unwrap();
        assert_eq!(o.sample_every_secs, Some(0.5));
        assert!(o.profile);
        assert!(parse(&["--sample-every", "0"]).is_err());
        assert!(parse(&["--sample-every", "-1"]).is_err());
        assert!(parse(&["--sample-every", "x"]).is_err());
        assert!(parse(&["--sample-every"]).is_err());
    }

    #[test]
    fn threads_flag() {
        let o = parse(&["--threads", "3"]).unwrap();
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.thread_count(), 3);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&[]).unwrap().thread_count() >= 1);
    }
}
