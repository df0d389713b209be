//! End-to-end harness test: the real oracle registry, run exactly the way
//! the `repro check` CLI runs it.

use dt_check::{registry, run_suite};

#[test]
fn the_full_registry_holds_at_a_small_seed_sweep() {
    let props = registry();
    assert!(
        props.len() >= 10,
        "expected a full registry, got {}",
        props.len()
    );
    let report = run_suite(&props, 8);
    assert!(!report.failed(), "{}", report.render());
    let rendered = report.render();
    assert!(rendered.contains("all properties hold"), "{rendered}");
    for p in &props {
        assert!(rendered.contains(p.name), "render must list {}", p.name);
    }
}

#[test]
fn suite_outcomes_are_identical_across_runs() {
    let props = registry();
    let a = run_suite(&props, 5);
    let b = run_suite(&props, 5);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.cases, y.cases);
        assert_eq!(x.failure, y.failure);
    }
}
