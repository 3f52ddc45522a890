//! The five workloads: device, preconditioning stages and measured
//! threads, as data. Every thread is a closed-loop `Pumped` generator —
//! it submits its next IO only on a completion — so a stage is fully
//! described by (generator, IO count, window, seed) per thread, and the
//! same description regenerates the exact IO stream for the controller
//! replay drive.

use eagletree_controller::{ControllerConfig, MappingKind};
use eagletree_core::{ObsConfig, SimRng};
use eagletree_experiments::Setup;
use eagletree_flash::{Geometry, TimingSpec};
use eagletree_os::{OsIo, QosPolicy, Workload};
use eagletree_workloads::{IoGen, Pumped, RandWriteGen, Region, SeqWriteGen, ZipfGen, ZipfKind};

/// `--seconds` value the IO counts below are sized for: [`ROUNDS`] rounds
/// of about 2.4 host seconds each at the commit that defined the benchmark.
pub const NOMINAL_SECONDS: u64 = 12;
/// Measured rounds per untraced run (fresh stack and preconditioning each).
pub const ROUNDS: usize = 5;

/// What a thread's generator issues over its whole namespace.
#[derive(Clone, Copy)]
pub enum Gen {
    SeqWrite,
    RandWrite,
    /// Zipf θ=0.99 with this percentage of reads.
    Zipf {
        read_pct: u8,
    },
}

/// One closed-loop thread.
#[derive(Clone)]
pub struct ThreadSpec {
    pub name: String,
    pub gen: Gen,
    pub ios: u64,
    pub window: u64,
    pub seed: u64,
}

impl ThreadSpec {
    fn new(name: &str, gen: Gen, ios: u64, window: u64, seed: u64) -> Self {
        ThreadSpec {
            name: name.to_string(),
            gen,
            ios,
            window,
            seed,
        }
    }

    fn gen(&self) -> AnyGen {
        let whole = Region::whole();
        match self.gen {
            Gen::SeqWrite => AnyGen::Seq(SeqWriteGen::new(whole, self.ios)),
            Gen::RandWrite => AnyGen::Rand(RandWriteGen::new(whole, self.ios)),
            Gen::Zipf { read_pct } => {
                let kind = ZipfKind::Mixed(read_pct);
                AnyGen::Zipf(ZipfGen::new(whole, self.ios, 0.99, kind))
            }
        }
    }

    /// The thread as the OS runs it.
    pub fn build(&self) -> Box<dyn Workload> {
        Box::new(Pumped::new(self.gen(), self.window, self.seed).named(&self.name))
    }

    /// The IOs the thread will submit, in submission order: the same
    /// generator driven by the same RNG `Pumped` seeds, outside the stack.
    pub fn stream(&self, namespace_pages: u64) -> Vec<OsIo> {
        let mut gen = self.gen();
        let mut rng = SimRng::new(self.seed);
        let mut out = Vec::with_capacity(self.ios as usize);
        while let Some(io) = gen.next_io(&mut rng, namespace_pages) {
            out.push(io);
        }
        out
    }
}

/// The generator a [`Gen`] names, as one type.
enum AnyGen {
    Seq(SeqWriteGen),
    Rand(RandWriteGen),
    Zipf(ZipfGen),
}

impl IoGen for AnyGen {
    fn next_io(&mut self, rng: &mut SimRng, logical_pages: u64) -> Option<OsIo> {
        match self {
            AnyGen::Seq(g) => g.next_io(rng, logical_pages),
            AnyGen::Rand(g) => g.next_io(rng, logical_pages),
            AnyGen::Zipf(g) => g.next_io(rng, logical_pages),
        }
    }
}

/// A group of measured threads sharing one namespace. `namespace: None`
/// is the implicit whole-device tenant (`Os::add_thread`).
#[derive(Clone)]
pub struct TenantSpec {
    pub name: String,
    /// `(pages, WFQ weight)` of a carved namespace.
    pub namespace: Option<(u64, u32)>,
    pub threads: Vec<ThreadSpec>,
}

/// One benchmark workload.
#[derive(Clone)]
pub struct Spec {
    pub name: String,
    pub setup: Setup,
    /// Preconditioning threads on the whole device, run one after another.
    pub precondition: Vec<ThreadSpec>,
    pub tenants: Vec<TenantSpec>,
}

impl Spec {
    pub fn logical_pages(&self) -> u64 {
        self.setup.logical_pages()
    }

    /// IOs the measured threads are sized to issue.
    pub fn planned_ios(&self) -> u64 {
        self.tenants
            .iter()
            .flat_map(|t| &t.threads)
            .map(|t| t.ios)
            .sum()
    }

    pub fn obs_enabled(&self) -> bool {
        self.setup.ctrl.obs.spans_enabled()
    }

    /// The same workload with observability switched off.
    pub fn without_obs(&self) -> Spec {
        let mut s = self.clone();
        s.setup.ctrl.obs = ObsConfig::default();
        s
    }
}

/// 4 channels × 4 LUNs × 128 blocks × 64 pages of 4 KiB SLC, default
/// controller policies, static wear leveling and the fault model off.
fn device() -> Setup {
    let mut s = Setup::demo();
    s.geometry = Geometry {
        channels: 4,
        luns_per_channel: 4,
        planes_per_lun: 1,
        blocks_per_plane: 128,
        pages_per_block: 64,
        page_size: 4096,
    };
    s.timing = TimingSpec::slc();
    s.ctrl = ControllerConfig::default();
    s.ctrl.wl.static_enabled = false;
    s
}

/// Derive a per-thread generator seed from the run seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser: distinct salts give unrelated streams.
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a workload by name. `scale` multiplies every measured IO count
/// (1.0 at [`NOMINAL_SECONDS`]); preconditioning is sized by the device
/// and does not scale.
pub fn workload(name: &str, seed: u64, scale: f64) -> Option<Spec> {
    let mut setup = device();
    let logical = setup.logical_pages();
    let n = |ios: u64| ((ios as f64 * scale).round() as u64).max(64);
    let fill = ThreadSpec::new("seq-precondition", Gen::SeqWrite, logical, 32, 0xF111);
    let whole = |threads| {
        vec![TenantSpec {
            name: "device".into(),
            namespace: None,
            threads,
        }]
    };
    let spec = match name {
        "overwrite_qd512" | "overwrite_qd1" => {
            let (qd, ios) = if name == "overwrite_qd512" {
                (512, logical * 6 / 10)
            } else {
                (1, logical * 24 / 10)
            };
            setup.os.queue_depth = qd as usize;
            // One IO in flight: the same aged state as a wider window
            // leaves, at a quarter of the host time.
            let age = ThreadSpec::new("age", Gen::RandWrite, logical, 1, sub_seed(seed, 1));
            let w = ThreadSpec::new("overwriter", Gen::RandWrite, n(ios), qd, sub_seed(seed, 2));
            Spec {
                name: name.to_string(),
                setup,
                precondition: vec![fill, age],
                tenants: whole(vec![w]),
            }
        }
        "zipf_mixed_dftl" => {
            setup.ctrl.mapping = MappingKind::Dftl {
                cmt_entries: (logical / 20) as usize,
            };
            setup.os.queue_depth = 32;
            let zipf = Gen::Zipf { read_pct: 70 };
            let warm = ThreadSpec::new("warm-up", zipf, logical, 32, sub_seed(seed, 3));
            let w = ThreadSpec::new(
                "zipf-mixed",
                zipf,
                n(logical * 9 / 10),
                32,
                sub_seed(seed, 4),
            );
            Spec {
                name: name.to_string(),
                setup,
                precondition: vec![fill, warm],
                tenants: whole(vec![w]),
            }
        }
        "tenants_qos" | "tenants_qos_obs" => {
            setup.os.qos = QosPolicy::Wfq;
            setup.os.queue_depth = 64;
            if name == "tenants_qos_obs" {
                setup.ctrl.obs = ObsConfig {
                    span_capacity: 1 << 16,
                    timeline_interval_us: 1000,
                };
            }
            let pages = logical / 8;
            let flood = ThreadSpec::new(
                "flood",
                Gen::SeqWrite,
                n(pages * 6 / 10),
                128,
                sub_seed(seed, 5),
            );
            let mut tenants = vec![TenantSpec {
                name: "flooder".into(),
                namespace: Some((pages, 1)),
                threads: vec![flood],
            }];
            for r in 0..6u64 {
                let threads = (0..2)
                    .map(|k| {
                        let s = sub_seed(seed, 10 + 2 * r + k);
                        ThreadSpec::new(
                            &format!("r{r}.{k}"),
                            Gen::Zipf { read_pct: 90 },
                            n(pages * 12 / 10),
                            4,
                            s,
                        )
                    })
                    .collect();
                tenants.push(TenantSpec {
                    name: format!("r{r}"),
                    namespace: Some((pages, r as u32 + 1)),
                    threads,
                });
            }
            Spec {
                name: name.to_string(),
                setup,
                precondition: vec![fill],
                tenants,
            }
        }
        _ => return None,
    };
    Some(spec)
}
