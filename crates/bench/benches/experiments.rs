//! Criterion benches regenerating each experiment at smoke scale.
//!
//! One bench per experiment in `suite::all()` (the index `harness --help`
//! prints); `cargo bench` therefore re-derives the whole evaluation (at
//! reduced size — use the `harness` binary for full-scale series).

use criterion::{criterion_group, criterion_main, Criterion};
use eagletree_experiments::{suite, Scale};

fn bench_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    // Experiments are whole simulations: sample sparsely and briefly.
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for e in suite::all() {
        g.bench_function(e.id, |b| {
            b.iter(|| {
                let t = e.run(Scale::Smoke);
                assert!(!t.rows.is_empty());
                t
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
