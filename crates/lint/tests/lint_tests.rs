//! Fixture tests for the gllm-lint check families, plus the tier-1 gate:
//! the workspace itself must be lint-clean.
//!
//! Each known-bad fixture asserts an *exact* violation count so a silently
//! weakened check fails loudly; each known-good fixture asserts zero.

use std::path::{Path, PathBuf};

use gllm_lint::{check_vendor_hygiene, lint_rust_source, lint_workspace, Check, Violation};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(name: &str, checks: &[Check]) -> Vec<Violation> {
    let contents = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture exists");
    lint_rust_source(Path::new(name), &contents, checks)
}

#[test]
fn unit_confusion_fixtures() {
    let bad = lint_fixture("unit_confusion_bad.rs", &[Check::UnitConfusion]);
    assert_eq!(bad.len(), 4, "{bad:#?}");
    assert!(bad.iter().all(|v| v.check == Check::UnitConfusion));
    // One return-type finding, three raw-param findings.
    assert_eq!(bad.iter().filter(|v| v.message.contains("returns a raw integer")).count(), 1);
    assert_eq!(bad.iter().filter(|v| v.message.contains("as a raw integer")).count(), 3);

    let good = lint_fixture("unit_confusion_good.rs", &[Check::UnitConfusion]);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn panic_freedom_fixtures() {
    let bad = lint_fixture("panic_freedom_bad.rs", &[Check::PanicFreedom]);
    assert_eq!(bad.len(), 4, "{bad:#?}");
    for label in ["unwrap()", "expect()", "panic!", "literal index"] {
        assert!(
            bad.iter().any(|v| v.message.contains(label)),
            "missing `{label}` finding in {bad:#?}"
        );
    }

    let good = lint_fixture("panic_freedom_good.rs", &[Check::PanicFreedom]);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn sim_determinism_fixtures() {
    let bad = lint_fixture("sim_determinism_bad.rs", &[Check::SimDeterminism]);
    assert_eq!(bad.len(), 5, "{bad:#?}");
    for needle in ["Instant::now", "HashMap", "thread_rng", "thread::spawn"] {
        assert!(
            bad.iter().any(|v| v.message.contains(needle)),
            "missing `{needle}` finding in {bad:#?}"
        );
    }

    let good = lint_fixture("sim_determinism_good.rs", &[Check::SimDeterminism]);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn thread_spawn_is_sanctioned_only_in_the_sweep_module() {
    let src = "pub fn fan() {\n    let h = std::thread::spawn(|| 1u64);\n    h.join().ok();\n}\n";
    // Anywhere else in the sim plane: flagged.
    let elsewhere = lint_rust_source(
        Path::new("crates/sim/src/engine.rs"),
        src,
        &[Check::SimDeterminism],
    );
    assert_eq!(elsewhere.len(), 1, "{elsewhere:#?}");
    assert!(elsewhere[0].message.contains("thread::spawn"));
    // In the sanctioned index-merged worker pool: allowed.
    let sanctioned = lint_rust_source(
        Path::new("crates/sim/src/sweep.rs"),
        src,
        &[Check::SimDeterminism],
    );
    assert!(sanctioned.is_empty(), "{sanctioned:#?}");
}

#[test]
fn lock_discipline_fixtures() {
    let bad = lint_fixture("lock_discipline_bad.rs", &[Check::LockDiscipline]);
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad.iter().all(|v| v.message.contains("MutexGuard `g` is live")));

    let good = lint_fixture("lock_discipline_good.rs", &[Check::LockDiscipline]);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn suppression_semantics() {
    let v = lint_fixture("suppression.rs", &[Check::PanicFreedom]);
    // Two expects are allowed (trailing + standalone form). The reasonless
    // allow suppresses nothing AND is flagged; the unknown check is flagged.
    assert_eq!(v.len(), 3, "{v:#?}");
    assert_eq!(v.iter().filter(|v| v.message.contains("expect()")).count(), 1);
    assert_eq!(v.iter().filter(|v| v.message.contains("requires a reason")).count(), 1);
    assert_eq!(v.iter().filter(|v| v.message.contains("unknown check")).count(), 1);
}

#[test]
fn vendor_hygiene_fixtures() {
    let good = check_vendor_hygiene(&fixture_dir().join("vendor_good"));
    assert!(good.is_empty(), "{good:#?}");

    let bad = check_vendor_hygiene(&fixture_dir().join("vendor_bad"));
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad.iter().any(|v| v.message.contains("no shim crate")));
    assert!(bad.iter().any(|v| v.message.contains("no vendor/README.md entry")));
}

// ---------------------------------------------------------------------------
// v2 dataflow families.
// ---------------------------------------------------------------------------

#[test]
fn lock_order_fixtures() {
    let bad = lint_fixture("lock_order_bad.rs", &[Check::LockOrder]);
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad.iter().all(|v| v.check == Check::LockOrder));
    assert_eq!(bad.iter().filter(|v| v.message.contains("lock-order cycle")).count(), 1);
    assert_eq!(bad.iter().filter(|v| v.message.contains("re-locks")).count(), 1);

    let good = lint_fixture("lock_order_good.rs", &[Check::LockOrder]);
    assert!(good.is_empty(), "{good:#?}");
}

/// The seeded multi-statement guard-across-recv case from the issue: the
/// v2 dataflow engine must catch what the v1 lexical check provably could
/// not see.
#[test]
fn multiline_guard_across_recv_is_caught_and_was_invisible_to_v1() {
    let contents = std::fs::read_to_string(fixture_dir().join("guard_multiline_bad.rs"))
        .expect("fixture exists");

    // v2: exactly one lock-discipline finding, at the blocking recv.
    let v = lint_rust_source(
        Path::new("guard_multiline_bad.rs"),
        &contents,
        &[Check::LockDiscipline],
    );
    assert_eq!(v.len(), 1, "{v:#?}");
    assert!(v[0].message.contains("MutexGuard `guard` is live"));
    assert!(contents.lines().nth(v[0].line - 1).unwrap_or("").contains(".recv()"));

    // v1's guard registration required `let` and `.lock()` on one physical
    // line (see PR 2's `lock_binding_name`). No line of this fixture
    // satisfies that precondition, so the old check tracked no guard at
    // all — the violation was invisible by construction.
    assert!(
        !contents.lines().any(|l| l.contains("let ") && l.contains(".lock()")),
        "fixture must keep the binding split across lines"
    );
}

#[test]
fn newtype_escape_fixtures() {
    let bad = lint_fixture("newtype_escape_bad.rs", &[Check::NewtypeEscape]);
    assert_eq!(bad.len(), 3, "{bad:#?}");
    assert!(bad.iter().all(|v| v.check == Check::NewtypeEscape));
    assert_eq!(bad.iter().filter(|v| v.message.contains("cross-unit")).count(), 2);
    assert_eq!(bad.iter().filter(|v| v.message.contains("pub fn laundered")).count(), 1);

    let good = lint_fixture("newtype_escape_good.rs", &[Check::NewtypeEscape]);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn float_determinism_fixtures() {
    let bad = lint_fixture("float_determinism_bad.rs", &[Check::FloatDeterminism]);
    assert_eq!(bad.len(), 3, "{bad:#?}");
    assert_eq!(bad.iter().filter(|v| v.message.contains("total_cmp")).count(), 2);
    assert_eq!(bad.iter().filter(|v| v.message.contains("NaN")).count(), 3);

    let good = lint_fixture("float_determinism_good.rs", &[Check::FloatDeterminism]);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn stale_suppression_fixtures() {
    let v = lint_fixture(
        "stale_suppression.rs",
        &[Check::PanicFreedom, Check::SimDeterminism, Check::StaleSuppression],
    );
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|f| f.check == Check::StaleSuppression));
    assert!(v.iter().all(|f| f.message.contains("stale suppression")));
}

/// Regression for the runtime guard-scope fixes (narrowed audit critical
/// sections in the driver, poison-recovering `audit_snapshot` in the
/// server): the real runtime sources must stay clean under the v2 lock
/// dataflow families specifically, not just the aggregate workspace gate.
#[test]
fn runtime_sources_pass_lock_dataflow_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    for name in ["driver.rs", "server.rs", "worker.rs"] {
        let rel = Path::new("crates/runtime/src").join(name);
        let contents = std::fs::read_to_string(root.join(&rel)).expect("runtime source exists");
        let v = lint_rust_source(&rel, &contents, &[Check::LockDiscipline, Check::LockOrder]);
        assert!(v.is_empty(), "{name} regressed on lock dataflow checks: {v:#?}");
    }
}

/// Tier-1 gate: the workspace this crate lives in must be lint-clean. This
/// is what keeps the five static invariants enforced going forward — any
/// new violation (or reasonless suppression) fails `cargo test`.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let violations = lint_workspace(&root);
    assert!(
        violations.is_empty(),
        "gllm-lint found {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}
