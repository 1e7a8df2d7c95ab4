//! Operation accounting: one operation is one repetition (warm-up, timed,
//! build-only, traced), one layer driver or one child process, together
//! with its output checks. A panic or a failed check is a failed
//! operation, never a crash of the benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::json::Value;

/// Attempted/failed operation counts plus what went wrong.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Runs one operation. `None` when it panicked or returned `Err`;
    /// either way the failure is counted and described.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(why)) => why,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                format!("panicked: {msg}")
            }
        };
        self.failed += 1;
        self.failures.push(format!("{what}: {failure}"));
        None
    }

    /// Books the operations a child process reported in its detail object
    /// (`ops_attempted`, `ops_failed`, `failures`) as this run's own.
    pub fn absorb(&mut self, detail: &Value, whose: &str) {
        let count = |key: &str| detail.get(key).and_then(Value::as_u64).unwrap_or(0);
        self.attempted += count("ops_attempted");
        self.failed += count("ops_failed");
        let failures = detail
            .get("failures")
            .and_then(Value::as_arr)
            .unwrap_or(&[]);
        self.failures.extend(
            failures
                .iter()
                .filter_map(Value::as_str)
                .map(|f| format!("{whose}: {f}")),
        );
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }

    /// The three fields [`Ops::absorb`] reads back.
    pub fn to_json(&self) -> [(&'static str, Value); 3] {
        [
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failed as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_and_panics_are_counted_not_propagated() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("fine", || Ok(3)), Some(3));
        assert_eq!(
            ops.run("bad", || Err::<u8, _>("digest changed".into())),
            None
        );
        assert_eq!(
            ops.run("boom", || -> Result<u8, String> { panic!("kaput {}", 7) }),
            None
        );
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!(!ops.all_passed());
        assert_eq!(
            ops.failures,
            ["bad: digest changed", "boom: panicked: kaput 7"]
        );
    }

    #[test]
    fn a_childs_operations_become_the_parents() {
        let mut child = Ops::default();
        child.run("fine", || Ok(()));
        child.run("bad", || Err::<(), _>("no".into()));
        let mut parent = Ops::default();
        parent.run("child process", || Ok(()));
        parent.absorb(&Value::obj(child.to_json()), "process 2");
        assert_eq!((parent.attempted, parent.failed), (3, 1));
        assert_eq!(parent.failures, ["process 2: bad: no"]);
        parent.absorb(&Value::Null, "nobody");
        assert_eq!((parent.attempted, parent.failed), (3, 1));
    }
}
