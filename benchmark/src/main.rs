//! The benchmark's executable; everything lives in the library so that
//! the integration tests can read the same tables and JSON.

fn main() -> std::process::ExitCode {
    tactic_benchmark::run(std::env::args().skip(1).collect())
}
