//! One point of an experiment, and the one way to run it.
//!
//! §2.3's template — "(1) an SSD parameter or policy, (2) a strategy for
//! how to vary it, (3) a workload definition" — as data: a [`Point`] is a
//! label, the [`Setup`] with the knob already turned, the workloads that
//! precondition the device, and the measured [`Actor`]s.
//! [`run_point`] alone owns the lifecycle build → fill → install →
//! snapshot → run → measure; an experiment is the values it sweeps, the
//! point each value makes, and the columns it reads off each [`Ran`]
//! ([`sweep`]).

use eagletree_core::SimTime;
use eagletree_os::{Os, Stalled, TenantId, ThreadId, Workload};
use eagletree_workloads::{sequential_fill, TenantProfile};

use crate::metrics::{measure_since, snapshot, Measured, Row, Table};
use crate::setup::Setup;

/// Who issues IO during the measured phase.
pub(crate) enum Actor {
    /// One thread in the default tenant.
    Thread(Box<dyn Workload>),
    /// A tenant: namespace, QoS parameters and its threads.
    Tenant(TenantProfile),
}

impl Actor {
    pub(crate) fn thread(w: impl Workload + 'static) -> Self {
        Actor::Thread(Box::new(w))
    }
}

/// One configuration to build, run and measure.
pub(crate) struct Point {
    pub label: String,
    pub setup: Setup,
    /// Preconditioning threads, in the default tenant: run together to
    /// quiescence before the measured phase, and not measured.
    pub fill: Vec<Box<dyn Workload>>,
    /// Installed in order after the fill: thread and tenant ids follow
    /// this order (the fill threads, when there are any, create the
    /// default tenant first and take the first ids).
    pub actors: Vec<Actor>,
}

impl Point {
    /// A point measured on a device aged by `fill`.
    pub(crate) fn aged(
        label: impl Into<String>,
        setup: Setup,
        fill: Vec<Box<dyn Workload>>,
        actors: Vec<Actor>,
    ) -> Self {
        Point {
            label: label.into(),
            setup,
            fill,
            actors,
        }
    }

    /// A point measured on a device whose whole logical space was written
    /// sequentially first, so it starts full and every overwrite costs GC.
    pub(crate) fn filled(label: impl Into<String>, setup: Setup, actors: Vec<Actor>) -> Self {
        Point::aged(label, setup, vec![sequential_fill(32)], actors)
    }

    /// A point measured on a factory-fresh device.
    pub(crate) fn fresh(label: impl Into<String>, setup: Setup, actors: Vec<Actor>) -> Self {
        Point::aged(label, setup, Vec::new(), actors)
    }
}

/// What one actor did over the measured phase.
pub(crate) struct ActorRun {
    /// `Some` for an [`Actor::Tenant`].
    pub tenant: Option<TenantId>,
    /// Over this actor's threads, controller counters as deltas over the
    /// measured phase.
    pub m: Measured,
}

impl ActorRun {
    /// The tenant id of an [`Actor::Tenant`].
    pub(crate) fn tenant_id(&self) -> TenantId {
        self.tenant.expect("a tenant actor")
    }
}

/// A point after its run.
pub(crate) struct Ran {
    pub label: String,
    pub os: Os,
    /// `Err` when a phase stopped with work left: the measured phase's
    /// [`Stalled`] when both did.
    pub stalled: Result<(), Stalled>,
    /// In [`Point::actors`] order.
    pub actors: Vec<ActorRun>,
    /// Over every actor's threads together, in actor order.
    pub all: Measured,
    /// Virtual time at which the measured phase began.
    pub started: SimTime,
    /// Simulation events and event-queue operations the measured phase
    /// took — the event engine's work (E18).
    pub events: u64,
    pub queue_ops: u64,
}

impl Ran {
    /// A row labelled like the point, ready for columns.
    pub(crate) fn row(&self) -> Row {
        Row::new(self.label.clone())
    }

    /// Jain's fairness index over per-actor throughput: 1 when every
    /// actor gets the same IOPS, 1/n when one actor gets everything.
    pub(crate) fn jain(&self) -> f64 {
        let sum: f64 = self.actors.iter().map(|a| a.m.iops).sum();
        let sumsq: f64 = self.actors.iter().map(|a| a.m.iops * a.m.iops).sum();
        if sumsq == 0.0 {
            0.0
        } else {
            sum * sum / (self.actors.len() as f64 * sumsq)
        }
    }
}

/// Build the point's device, run its fill, install the actors, run to
/// quiescence and measure each actor (and all of them together) over the
/// measured phase only. A stop in either phase is [`Ran::stalled`].
pub(crate) fn run_point(p: Point) -> Ran {
    let mut os = p.setup.build();
    let mut filled = Ok(());
    if !p.fill.is_empty() {
        for w in p.fill {
            os.add_thread(w);
        }
        filled = os.run();
    }
    let ids: Vec<(Option<TenantId>, Vec<ThreadId>)> = p
        .actors
        .into_iter()
        .map(|a| match a {
            Actor::Thread(w) => (None, vec![os.add_thread(w)]),
            Actor::Tenant(profile) => {
                let (tenant, threads) = profile.install(&mut os);
                (Some(tenant), threads)
            }
        })
        .collect();
    let base = snapshot(&os);
    let (started, events_before, queue_ops_before) =
        (os.now(), os.events_simulated(), os.queue_ops());
    let stalled = os.run().and(filled);
    let everyone: Vec<ThreadId> = ids.iter().flat_map(|(_, t)| t).copied().collect();
    let all = measure_since(&os, &everyone, &base);
    let actors = ids
        .into_iter()
        .map(|(tenant, threads)| ActorRun {
            m: measure_since(&os, &threads, &base),
            tenant,
        })
        .collect();
    Ran {
        label: p.label,
        events: os.events_simulated() - events_before,
        queue_ops: os.queue_ops() - queue_ops_before,
        os,
        stalled,
        actors,
        all,
        started,
    }
}

/// An experiment: one point per swept value, run in order, one row per
/// point.
pub(crate) fn sweep<V>(
    id: &str,
    title: &str,
    param: &str,
    values: impl IntoIterator<Item = V>,
    point: impl Fn(V) -> Point,
    row: impl Fn(&Ran) -> Row,
) -> Table {
    let mut t = Table::new(id, title, param);
    for v in values {
        let ran = run_point(point(v));
        t.note(&ran.label, &ran.stalled);
        t.rows.push(row(&ran));
    }
    t
}
