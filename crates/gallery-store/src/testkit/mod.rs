//! Deterministic crash-consistency test harness.
//!
//! The paper's central durability claim (§3.5) is an *ordering* argument:
//! blobs are written before the metadata that references them, so a crash
//! at any instant leaves either a complete instance or a harmless orphan
//! blob — never metadata pointing at nothing. Arguments like that are only
//! as good as the set of crash instants actually exercised, so this module
//! provides machinery to exercise **all of them**:
//!
//! - [`workload`] — seeded random DAL workloads with deterministic,
//!   per-instance blob payloads (recoverable state can be verified without
//!   replaying the op sequence);
//! - [`model`] — an in-memory reference model of DAL semantics plus a
//!   differential runner that diffs a real DAL against it op by op;
//! - [`crashmatrix`] — the matrix checker: trace a workload over a
//!   simulated disk ([`crate::simfs::SimFs`]), then replay it crashing at
//!   *every* recorded IO operation (optionally with torn final writes,
//!   lying fsyncs, and bit flips), recover, and assert the paper's
//!   invariants on the survivor;
//! - [`schedule`] — seeded schedule perturbation: a hook at every ordered
//!   lock acquisition that yields or sleeps per a deterministic stream,
//!   widening race windows so concurrency tests explore more
//!   interleavings (drives the E22 lock-lint experiment).
//!
//! Everything is seeded: a failing scenario prints its seed, and re-running
//! with that seed reproduces the exact workload, IO trace, and crash point.
//! See `docs/testing.md` for the invariant catalogue and the reproduction
//! workflow. Experiment E16 (`exp_crashmatrix`) drives this harness at
//! scale; a bounded smoke configuration runs in CI on every push.

pub mod crashmatrix;
pub mod model;
pub mod schedule;
pub mod workload;

pub use crashmatrix::{
    run_crash_matrix, CrashMatrixConfig, CrashMatrixReport, Violation, BLOB_ROOT, WAL_PATH,
};
pub use model::{run_differential, DiffReport, RefModel, RefRow};
pub use schedule::ScheduleShaker;
pub use workload::{instance_schema, payload_for, score_for, Workload, WorkloadOp, TABLE};
