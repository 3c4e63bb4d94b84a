//! System specification: which policy drives which cache, and the one
//! table ([`SPEC_FIELDS`]) that declares every user-settable knob for the
//! CLI, the serve protocol, `--help` and the environment defaults.

use std::fmt::Write as _;

use bitline_cache::{CacheConfig, PrechargePolicy};
use bitline_circuit::DecoderModel;
use bitline_cmos::TechnologyNode;
use bitline_energy::LeakageKind;
use bitline_obs::json::{json_f64, json_u64, Json};
use gated_precharge::{
    AdaptiveConfig, AdaptiveGatedPolicy, DrowsyPolicy, GatedPolicy, LeakageBiasedPolicy,
    OnDemandPolicy, OraclePolicy, ResizableConfig, ResizablePolicy, StaticPullUp,
};
use serde::{Deserialize, Serialize};

use bitline_faults::FaultConfig;

use crate::error::SimError;
use crate::recorder::LocalityRecorder;

/// Which precharge controller to attach to a cache.
///
/// Equality and hashing are total (`Eq + Hash`): the one `f64` field
/// (`Resizable::slack`) compares and hashes by bit pattern, so the type
/// can key the process-wide run cache. See [`SystemSpec`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Conventional static pull-up (the baseline).
    StaticPullUp,
    /// Perfect, delay-free identification (Section 4 potential).
    Oracle,
    /// Partial-address-decode on-demand precharging (Section 5).
    OnDemand,
    /// Gated precharging with a decay threshold in cycles (Section 6).
    Gated {
        /// Decay threshold in cycles.
        threshold: u64,
    },
    /// Gated precharging plus predecode hints from base-register values
    /// (Section 6.3; data caches only — instruction fetch has no base
    /// register).
    GatedPredecode {
        /// Decay threshold in cycles.
        threshold: u64,
    },
    /// Gated precharging with a feedback-controlled threshold (extension
    /// beyond the paper: its Section 6.2 defers threshold selection).
    AdaptiveGated {
        /// Accesses per adaptation interval.
        interval_accesses: u64,
    },
    /// Leakage-biased bitlines (the paper's [8]): on-demand isolation with
    /// the pull-up delay optimistically assumed hidden.
    LeakageBiased,
    /// Drowsy subarrays (the paper's [13]): reduces *cell* leakage, not
    /// bitline discharge — the contrast the related-work section draws.
    Drowsy {
        /// Idle cycles before a subarray drops to the retention voltage.
        threshold: u64,
    },
    /// Resizable-cache baseline (Section 6.4, [22]).
    Resizable {
        /// Accesses per monitoring interval.
        interval_accesses: u64,
        /// Tolerated absolute miss-ratio increase before upsizing.
        slack: f64,
    },
    /// Static-pull-up timing plus subarray locality recording (Figures
    /// 5/6).
    LocalityRecorder,
}

/// Implements `PartialEq`, `Eq` and `Hash` through one projection of the
/// value, with every `f64` taken by bit pattern (`f64::to_bits`), so the
/// type can key the run cache. `NaN` (which validation rejects anyway) at
/// least equals itself.
macro_rules! eq_hash_by_bits {
    ($ty:ty, $v:ident => $project:expr) => {
        impl $ty {
            fn bits(&self) -> impl Eq + std::hash::Hash {
                let $v = self;
                $project
            }
        }

        impl PartialEq for $ty {
            fn eq(&self, other: &Self) -> bool {
                self.bits() == other.bits()
            }
        }

        impl Eq for $ty {}

        impl std::hash::Hash for $ty {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.bits().hash(state);
            }
        }
    };
}

eq_hash_by_bits!(PolicyKind, p => {
    let params = match *p {
        PolicyKind::Gated { threshold }
        | PolicyKind::GatedPredecode { threshold }
        | PolicyKind::Drowsy { threshold } => (threshold, 0),
        PolicyKind::AdaptiveGated { interval_accesses } => (interval_accesses, 0),
        PolicyKind::Resizable { interval_accesses, slack } => (interval_accesses, slack.to_bits()),
        PolicyKind::StaticPullUp
        | PolicyKind::Oracle
        | PolicyKind::OnDemand
        | PolicyKind::LeakageBiased
        | PolicyKind::LocalityRecorder => (0, 0),
    };
    (std::mem::discriminant(p), params)
});

impl PolicyKind {
    /// Instantiates the policy for a cache at a node.
    #[must_use]
    pub fn build(
        &self,
        cache: &CacheConfig,
        node: TechnologyNode,
        recorder_sink: Option<std::rc::Rc<std::cell::RefCell<crate::LocalityStats>>>,
    ) -> Box<dyn PrechargePolicy> {
        let n = cache.subarrays();
        let decoder = DecoderModel::new(node, cache.geometry());
        match *self {
            PolicyKind::StaticPullUp => Box::new(StaticPullUp::new(n)),
            PolicyKind::Oracle => Box::new(OraclePolicy::new(n)),
            PolicyKind::OnDemand => {
                Box::new(OnDemandPolicy::new(n, decoder.on_demand_penalty_cycles()))
            }
            PolicyKind::Gated { threshold } | PolicyKind::GatedPredecode { threshold } => {
                Box::new(GatedPolicy::new(n, threshold, decoder.cold_access_penalty_cycles()))
            }
            PolicyKind::AdaptiveGated { interval_accesses } => Box::new(AdaptiveGatedPolicy::new(
                n,
                AdaptiveConfig { interval_accesses, ..AdaptiveConfig::default() },
            )),
            PolicyKind::LeakageBiased => Box::new(LeakageBiasedPolicy::new(n)),
            PolicyKind::Drowsy { threshold } => Box::new(DrowsyPolicy::new(n, threshold, 1)),
            PolicyKind::Resizable { interval_accesses, slack } => Box::new(ResizablePolicy::new(
                cache,
                ResizableConfig {
                    interval_accesses,
                    miss_ratio_slack: slack,
                    ..ResizableConfig::default()
                },
            )),
            PolicyKind::LocalityRecorder => Box::new(LocalityRecorder::new(
                n,
                recorder_sink.expect("locality recorder needs a sink"),
            )),
        }
    }

    /// Whether the CPU should issue predecode hints for this D-cache
    /// policy. The adaptive controller, like the paper's main data-cache
    /// configuration, runs with predecoding.
    #[must_use]
    pub fn wants_predecode(&self) -> bool {
        matches!(self, PolicyKind::GatedPredecode { .. } | PolicyKind::AdaptiveGated { .. })
    }

    /// Whether the decay-counter hardware overhead applies.
    #[must_use]
    pub fn has_decay_counters(&self) -> bool {
        matches!(
            self,
            PolicyKind::Gated { .. }
                | PolicyKind::GatedPredecode { .. }
                | PolicyKind::AdaptiveGated { .. }
        )
    }

    /// A short stable label (no parameters), used to key per-policy
    /// metrics such as `sim.runner.precharges.d.gated`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::StaticPullUp => "static",
            PolicyKind::Oracle => "oracle",
            PolicyKind::OnDemand => "ondemand",
            PolicyKind::Gated { .. } => "gated",
            PolicyKind::GatedPredecode { .. } => "gated-predecode",
            PolicyKind::AdaptiveGated { .. } => "adaptive",
            PolicyKind::LeakageBiased => "leakage-biased",
            PolicyKind::Drowsy { .. } => "drowsy",
            PolicyKind::Resizable { .. } => "resizable",
            PolicyKind::LocalityRecorder => "recorder",
        }
    }

    /// The instruction-cache counterpart of a data-cache policy: identical,
    /// except that predecode gating falls back to plain gating (predecoding
    /// needs a base register, and instruction fetch has none).
    #[must_use]
    pub fn icache_default(self) -> PolicyKind {
        match self {
            PolicyKind::GatedPredecode { threshold } => PolicyKind::Gated { threshold },
            other => other,
        }
    }
}

/// The policy grammar, one family per `|`-separated entry: `T` is a decay
/// threshold in cycles (default 100), `INTERVAL` accesses per adaptation
/// or monitoring interval. The parse-error hint and `bitline-sim --help`
/// both print this one list, so neither can omit a policy.
pub const POLICY_GRAMMAR: &str = "static | oracle | ondemand | gated:T | gated-predecode:T | \
    adaptive:INTERVAL | leakage-biased | drowsy:T | resizable:INTERVAL";

/// Parses [`POLICY_GRAMMAR`], plus the aliases `on-demand`, `predecode[:T]`
/// and `lbb`; the parameter of every family is optional. Every front door
/// parses policies here, through [`SPEC_FIELDS`], so they cannot drift.
impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let threshold = || -> Result<u64, String> {
            arg.map_or(Ok(100), |a| a.parse().map_err(|_| format!("bad threshold `{a}`")))
        };
        match name {
            "static" => Ok(PolicyKind::StaticPullUp),
            "oracle" => Ok(PolicyKind::Oracle),
            "ondemand" | "on-demand" => Ok(PolicyKind::OnDemand),
            "gated" => Ok(PolicyKind::Gated { threshold: threshold()? }),
            "gated-predecode" | "predecode" => {
                Ok(PolicyKind::GatedPredecode { threshold: threshold()? })
            }
            "adaptive" => Ok(PolicyKind::AdaptiveGated {
                interval_accesses: arg
                    .map_or(Ok(2_000), |a| a.parse().map_err(|_| format!("bad interval `{a}`")))?,
            }),
            "leakage-biased" | "lbb" => Ok(PolicyKind::LeakageBiased),
            "drowsy" => Ok(PolicyKind::Drowsy { threshold: threshold()? }),
            "resizable" => Ok(PolicyKind::Resizable {
                interval_accesses: arg
                    .map_or(Ok(10_000), |a| a.parse().map_err(|_| format!("bad interval `{a}`")))?,
                slack: 0.005,
            }),
            other => Err(format!("unknown policy `{other}` (try {POLICY_GRAMMAR})")),
        }
    }
}

/// Fault-injection parameters for a run. Disabled by default: the stock
/// simulation is fault-free and cycle-identical to a build without the
/// fault layer.
///
/// Equality and hashing treat [`FaultSpec::rate`] by bit pattern
/// (`f64::to_bits`), making the type a valid `HashMap` key; two specs with
/// numerically equal rates written the same way are equal, and `NaN`
/// (which [`SystemSpec::validate`] rejects anyway) at least compares equal
/// to itself.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Sense-margin upset probability per cold access (0 disables the
    /// whole fault layer).
    pub rate: f64,
    /// Seed of the injector's private RNG (independent of the workload
    /// seed).
    pub seed: u64,
    /// Arm graceful degradation: pin a subarray back to static pull-up
    /// after [`FaultSpec::FAIL_SAFE_UPSETS`] detected upsets (without
    /// ECC) or detected-uncorrectable errors (with ECC).
    pub fail_safe: bool,
    /// Protect both L1s with the (72,64) SECDED codec (`--ecc`, env
    /// `BITLINE_ECC`). With `rate == 0` this is fully transparent: no
    /// decorator is armed and every figure stays byte-identical.
    pub ecc: bool,
    /// Background scrub sweep period in cycles (`--scrub-period`, env
    /// `BITLINE_SCRUB_PERIOD`; `None` disables; requires [`FaultSpec::ecc`]).
    pub scrub_period: Option<u64>,
}

eq_hash_by_bits!(FaultSpec, f => (f.rate.to_bits(), f.seed, f.fail_safe, f.ecc, f.scrub_period));

impl FaultSpec {
    /// Detected upsets (DUEs with ECC) per subarray before fail-safe
    /// pinning.
    pub const FAIL_SAFE_UPSETS: u32 = 25;

    /// Codec-visible errors per subarray before the degradation ladder
    /// advances to scrub-on-detect (stage 1). Armed together with
    /// [`FaultSpec::fail_safe`] when ECC is on, so the ladder replaces
    /// the one-shot threshold rather than adding a separate knob.
    pub const SCRUB_ON_DETECT_ERRORS: u32 = 8;

    /// Whether any fault can ever be injected.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// Whether runs carry a [`bitline_ecc::ReliabilityReport`]: the codec
    /// is armed *and* there are upsets for it to classify.
    #[must_use]
    pub fn protected(&self) -> bool {
        self.ecc && self.enabled()
    }

    /// Expands to the full fault-model configuration. `pullup_penalty` is
    /// the cache's cold-access penalty (the decoder-dependent cycles a
    /// spuriously-isolated access pays); the replay penalty is one cycle of
    /// re-sense on top of that. `seed_salt` decouples the D- and I-cache
    /// fault streams. `subarray_words` sizes the latent-error denominator
    /// and the cost of one demand scrub.
    #[must_use]
    pub fn to_config(
        &self,
        pullup_penalty: u32,
        seed_salt: u64,
        subarray_words: u32,
    ) -> FaultConfig {
        let base = FaultConfig::with_rate(self.rate, self.seed.wrapping_add(seed_salt));
        FaultConfig {
            retry_cycles: pullup_penalty + 1,
            pullup_penalty,
            fail_safe_threshold: self.fail_safe.then_some(Self::FAIL_SAFE_UPSETS),
            ecc: self.ecc,
            scrub_period: self.scrub_period,
            scrub_on_detect_threshold: (self.ecc && self.fail_safe)
                .then_some(Self::SCRUB_ON_DETECT_ERRORS),
            subarray_words,
            ..base
        }
    }
}

impl Default for FaultSpec {
    /// The faults of [`SystemSpec::default`]: fault-free, with the
    /// protection knobs taken from the environment (`BITLINE_ECC`,
    /// `BITLINE_SCRUB_PERIOD`) so test harnesses and CI can arm ECC without
    /// threading flags.
    fn default() -> Self {
        SystemSpec::default().faults
    }
}

/// Supply-voltage parameters for a run. Inert by default: nominal Vdd
/// (`scale == 1.0`) with the governor off prices nothing differently and
/// arms no speculation, so every existing figure stays cycle- and
/// byte-identical until a spec opts in (`--vdd`, `--vdd-governor`).
///
/// Equality and hashing treat [`VddSpec::scale`] by bit pattern
/// (`f64::to_bits`), like [`FaultSpec::rate`], so the type can key the
/// process-wide run cache.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VddSpec {
    /// Supply voltage as a fraction of the node's nominal Vdd. Values
    /// below the sense-amp guardband make cold reads *timing-speculative*:
    /// they may mis-sense and replay through the detect-and-replay path.
    pub scale: f64,
    /// Arm the per-subarray voltage governor: start at [`VddSpec::scale`]
    /// (the aggressive rung) and climb a guardband ladder toward nominal
    /// when observed replay rates spike, with hysteresis and a fail-safe
    /// pin to nominal after repeated escalation.
    pub governor: bool,
}

eq_hash_by_bits!(VddSpec, v => (v.scale.to_bits(), v.governor));

impl Default for VddSpec {
    /// The supply of [`SystemSpec::default`]: nominal with the governor
    /// off, unless the environment (`BITLINE_VDD`, `BITLINE_VDD_GOVERNOR`)
    /// opts a whole harness in.
    fn default() -> Self {
        SystemSpec::default().vdd
    }
}

impl VddSpec {
    /// The inert spec: nominal supply, governor off. Unlike
    /// [`VddSpec::default`] this never consults the environment, so
    /// checkpoint canonicalisation is stable across harnesses.
    #[must_use]
    pub fn nominal() -> Self {
        VddSpec { scale: bitline_cmos::vdd::NOMINAL_VDD_SCALE, governor: false }
    }

    /// Whether this spec is the inert nominal supply (nothing to encode,
    /// nothing to re-price, no decorator — the guarantee behind the
    /// voltage differential test).
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.scale.to_bits() == bitline_cmos::vdd::NOMINAL_VDD_SCALE.to_bits() && !self.governor
    }

    /// The supply scales a run can sense at, aggressive first. A static
    /// spec is a single rung; a governed undervolted spec climbs
    /// aggressive → halfway → nominal. Overdrive (`scale >= 1`) never
    /// ladders — extra supply only adds margin, so there is nothing for
    /// a governor to escalate to.
    #[must_use]
    pub fn ladder_scales(&self) -> Vec<f64> {
        let nominal = bitline_cmos::vdd::NOMINAL_VDD_SCALE;
        if self.governor && self.scale < nominal {
            vec![self.scale, (self.scale + nominal) / 2.0, nominal]
        } else {
            vec![self.scale]
        }
    }

    /// Expands to the fault layer's ladder configuration, with each
    /// rung's mis-sense probability read off the `node` guardband curve.
    /// `None` for the inert default — nothing to arm, nothing to price.
    #[must_use]
    pub fn to_config(&self, node: TechnologyNode) -> Option<bitline_faults::VddConfig> {
        if self.is_default() {
            return None;
        }
        let steps = self
            .ladder_scales()
            .into_iter()
            .map(|scale| bitline_faults::VddStep {
                scale,
                upset_probability: bitline_cmos::vdd::timing_upset_probability(node, scale),
            })
            .collect::<Vec<_>>();
        let governor = (steps.len() > 1).then(bitline_faults::GovernorConfig::default);
        Some(bitline_faults::VddConfig { steps, governor })
    }

    /// Rejects supplies the circuit model cannot price.
    ///
    /// # Errors
    ///
    /// Returns a message when the scale is non-finite (NaN and ±inf fail
    /// fast here, before they can poison energy totals) or outside the
    /// modelled band.
    pub fn validate(&self) -> Result<(), String> {
        if !self.scale.is_finite() {
            return Err(format!("vdd scale must be finite, got {}", self.scale));
        }
        if !bitline_cmos::vdd::vdd_scale_valid(self.scale) {
            return Err(format!(
                "vdd scale = {}; must be within [{}, {}] of nominal",
                self.scale,
                bitline_cmos::vdd::MIN_VDD_SCALE,
                bitline_cmos::vdd::MAX_VDD_SCALE
            ));
        }
        // The expanded ladder must also satisfy the fault layer (belt
        // and braces: the construction above cannot currently violate
        // it, but a refactor that does should fail here, not mid-run).
        if let Some(cfg) = self.to_config(TechnologyNode::N70) {
            cfg.validate()?;
        }
        Ok(())
    }
}

/// Multi-level hierarchy parameters for a run. The default is **inert**:
/// `levels == 1` leaves the memory system exactly as the paper models it —
/// managed L1s in front of a statically precharged L2 — and the full-Vdd
/// leakage mode prices nothing differently, so every existing figure stays
/// cycle- and byte-identical until a spec opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HierarchySpec {
    /// Managed cache levels behind the L1s: `1` = stock (inert default),
    /// `2` = the L2 runs a real precharge policy, `3` = an L3 is inserted
    /// between the L2 and memory (`--levels`).
    pub levels: u8,
    /// Precharge policy for the L2 (and the L3 when present). Only applied
    /// when [`HierarchySpec::levels`] is at least 2.
    pub l2_policy: PolicyKind,
    /// Cell leakage mode priced on every level (`--leakage-mode`).
    pub leakage_mode: LeakageKind,
}

impl Default for HierarchySpec {
    fn default() -> Self {
        HierarchySpec {
            levels: 1,
            l2_policy: PolicyKind::StaticPullUp,
            leakage_mode: LeakageKind::FullVdd,
        }
    }
}

impl HierarchySpec {
    /// Whether the outer levels are actively managed (a non-stock memory
    /// system must be built). The leakage mode alone does not count: it
    /// only re-prices energy, never touching cycles.
    #[must_use]
    pub fn active(&self) -> bool {
        self.levels >= 2
    }

    /// Whether this spec is the inert default (nothing to encode, nothing
    /// to build — the guarantee behind the differential golden test).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == HierarchySpec::default()
    }

    /// Rejects hierarchies the simulator cannot run.
    ///
    /// # Errors
    ///
    /// Returns a message when `levels` is outside `[1, 3]` or the outer
    /// policy is the locality recorder (which needs a figure-5/6 sink the
    /// outer levels do not carry).
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=3).contains(&self.levels) {
            return Err(format!("levels = {}; must be 1, 2 or 3", self.levels));
        }
        if self.l2_policy == PolicyKind::LocalityRecorder {
            return Err("the locality recorder cannot drive an outer level".into());
        }
        Ok(())
    }
}

/// Full specification of one simulation run.
///
/// `Eq + Hash` (total, with the two `f64` fields compared by bit pattern —
/// see [`FaultSpec`] and [`PolicyKind`]) so `(benchmark, SystemSpec)` can
/// key the process-wide memoized run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemSpec {
    /// D-cache precharge policy.
    pub d_policy: PolicyKind,
    /// I-cache precharge policy.
    pub i_policy: PolicyKind,
    /// Subarray size in bytes for both L1s (Figure 10 sweeps this).
    pub subarray_bytes: usize,
    /// Instructions to simulate.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Enable MRU way prediction on both L1s (orthogonal dynamic-energy
    /// technique; paper's related work [12, 15]).
    pub way_prediction: bool,
    /// Fault injection (disabled by default; see [`FaultSpec`]).
    pub faults: FaultSpec,
    /// Multi-level hierarchy and leakage mode (inert by default; see
    /// [`HierarchySpec`]).
    pub hierarchy: HierarchySpec,
    /// Supply voltage and voltage governor (inert by default; see
    /// [`VddSpec`]).
    pub vdd: VddSpec,
}

impl SystemSpec {
    /// Subarray sizes the cache model can realise: a power of two between
    /// one line (32 B) and the whole 32 KB L1.
    const MIN_SUBARRAY: usize = 32;
    const MAX_SUBARRAY: usize = 32 * 1024;

    /// Rejects specs the simulator cannot run instead of panicking deep in
    /// the cache model.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSpec`] when the subarray size is not a power of
    /// two in `[32, 32768]`, the instruction count is zero, or the fault
    /// parameters fail [`FaultConfig::validate`] (rate outside `[0, 1]`,
    /// a zero scrub period, scrubbing without ECC, ...).
    pub fn validate(&self) -> Result<(), SimError> {
        let sa = self.subarray_bytes;
        if !sa.is_power_of_two() || !(Self::MIN_SUBARRAY..=Self::MAX_SUBARRAY).contains(&sa) {
            return Err(SimError::InvalidSpec(format!(
                "subarray_bytes = {sa}; must be a power of two between {} and {}",
                Self::MIN_SUBARRAY,
                Self::MAX_SUBARRAY
            )));
        }
        if self.instructions == 0 {
            return Err(SimError::InvalidSpec("instructions = 0".into()));
        }
        self.faults
            .to_config(1, 0, self.subarray_words())
            .validate()
            .map_err(SimError::InvalidSpec)?;
        self.hierarchy.validate().map_err(SimError::InvalidSpec)?;
        self.vdd.validate().map_err(SimError::InvalidSpec)?;
        Ok(())
    }

    /// 64-bit words per subarray (the ECC latent-error denominator and
    /// per-subarray scrub cost).
    #[must_use]
    pub fn subarray_words(&self) -> u32 {
        u32::try_from(self.subarray_bytes / 8).unwrap_or(u32::MAX).max(1)
    }

    /// The spec both front doors (`bitline-sim`, `bitline-serve`) start
    /// from: the paper's main configuration, gated-predecode:100 on the
    /// D-cache and gated:100 on the I-cache, over [`SystemSpec::default`].
    #[must_use]
    pub fn front_door() -> SystemSpec {
        let d_policy = PolicyKind::GatedPredecode { threshold: 100 };
        SystemSpec { d_policy, i_policy: d_policy.icache_default(), ..SystemSpec::default() }
    }
}

impl Default for SystemSpec {
    /// Static pull-up on both L1s, 1 KB subarrays, 150 000 instructions,
    /// seed 42, no faults, the inert hierarchy and the nominal supply; then
    /// each [`SPEC_FIELDS`] environment variable that is set.
    fn default() -> Self {
        let faults = FaultSpec {
            rate: 0.0,
            seed: 0xB17F_A017,
            fail_safe: false,
            ecc: false,
            scrub_period: None,
        };
        let mut spec = SystemSpec {
            d_policy: PolicyKind::StaticPullUp,
            i_policy: PolicyKind::StaticPullUp,
            subarray_bytes: 1024,
            instructions: 150_000,
            seed: 42,
            way_prediction: false,
            faults,
            hierarchy: HierarchySpec::default(),
            vdd: VddSpec::nominal(),
        };
        // Skips a malformed variable; the binaries refuse it at startup.
        let _ = apply_env(&mut spec);
        spec
    }
}

/// A spec-field value as a front door received it.
#[derive(Debug, Clone, Copy)]
pub enum FieldInput<'a> {
    /// A `bitline-sim` argument or an environment variable; a switch is on
    /// unless it reads `0` (a bare CLI switch reads as `1`).
    Text(&'a str),
    /// A `bitline-serve` spec value: a boolean for a switch, an unsigned
    /// integer for a count, a number for a real, else a string.
    Json(&'a Json),
}

impl<'a> FieldInput<'a> {
    fn number<T: std::str::FromStr>(
        self,
        what: &str,
        json: fn(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        match self {
            FieldInput::Text(t) => t.parse().map_err(|_| format!("expected {what}, got `{t}`")),
            FieldInput::Json(value) => json(value),
        }
    }

    fn text(self) -> Result<&'a str, String> {
        match self {
            FieldInput::Text(text) => Ok(text),
            FieldInput::Json(Json::Str(text)) => Ok(text),
            FieldInput::Json(_) => Err("expected a string".to_owned()),
        }
    }
}

/// Where a field's value lands, typed by the kind of value it takes; a
/// count or real setter may refuse a value (model ranges stay in
/// [`SystemSpec::validate`]).
#[derive(Clone, Copy)]
enum Setter {
    Switch(fn(&mut SystemSpec, bool)),
    Count(fn(&mut SystemSpec, u64) -> Result<(), String>),
    Real(fn(&mut SystemSpec, f64) -> Result<(), String>),
    Policy(fn(&mut SystemSpec, PolicyKind)),
    Leakage(fn(&mut SystemSpec, LeakageKind)),
}

/// One user-settable [`SystemSpec`] knob, declared once for every front
/// door.
pub struct SpecField {
    /// Key in a `bitline-serve` request's `spec` object.
    pub key: &'static str,
    /// `bitline-sim` flag.
    pub flag: &'static str,
    /// `bitline-sim` short alias.
    pub alias: Option<&'static str>,
    /// Environment variable read by [`SystemSpec::default`].
    pub env: Option<&'static str>,
    /// The value's placeholder in `--help` (empty for a switch).
    arg: &'static str,
    help: &'static str,
    set: Setter,
}

impl SpecField {
    /// Parses `input` as this field's kind and applies it to `spec`.
    fn apply(&self, spec: &mut SystemSpec, input: FieldInput<'_>) -> Result<(), String> {
        match (self.set, input) {
            (Setter::Switch(set), FieldInput::Text(text)) => set(spec, text != "0"),
            (Setter::Switch(set), FieldInput::Json(Json::Bool(on))) => set(spec, *on),
            (Setter::Switch(_), _) => return Err("expected a boolean".to_owned()),
            (Setter::Count(set), _) => set(spec, input.number("an unsigned integer", json_u64)?)?,
            (Setter::Real(set), _) => {
                // `"nan".parse::<f64>()` succeeds and JSON `1e999` is +inf;
                // either would poison a probability draw or an energy total.
                let x = input.number("a number", json_f64)?;
                if !x.is_finite() {
                    return Err(format!("must be finite, got {x}"));
                }
                set(spec, x)?;
            }
            (Setter::Policy(set), _) => set(spec, input.text()?.parse()?),
            (Setter::Leakage(set), _) => set(spec, input.text()?.parse()?),
        }
        Ok(())
    }
}

/// Every user-settable [`SystemSpec`] field, in application order: the
/// `d_policy` setter derives the I-cache policy, so `i_policy` follows it
/// and an explicit I-cache policy wins in whatever order values arrive.
#[rustfmt::skip]
pub static SPEC_FIELDS: [SpecField; 16] = [
    SpecField { key: "d_policy", flag: "--policy", alias: Some("-p"), env: None, arg: "P",
        help: "D-cache precharge policy (default gated-predecode:100); also sets the I-cache \
               policy, with predecode gating falling back to plain gating",
        set: Setter::Policy(|s, p| { s.d_policy = p; s.i_policy = p.icache_default(); }) },
    SpecField { key: "i_policy", flag: "--icache-policy", alias: None, env: None, arg: "P",
        help: "I-cache precharge policy (default: derived from --policy)",
        set: Setter::Policy(|s, p| s.i_policy = p) },
    SpecField { key: "subarray_bytes", flag: "--subarray", alias: None, env: None, arg: "BYTES",
        help: "subarray size of both L1s, a power of two in 32..=32768 (default 1024)",
        set: Setter::Count(|s, n| { s.subarray_bytes = usize::try_from(n).map_err(|e| e.to_string())?; Ok(()) }) },
    SpecField { key: "instructions", flag: "--instructions", alias: Some("-i"), env: Some("BITLINE_INSTRS"),
        arg: "N", help: "instructions to simulate per run (default 150000)",
        set: Setter::Count(|s, n| { s.instructions = n; Ok(()) }) },
    SpecField { key: "seed", flag: "--seed", alias: None, env: None, arg: "S", help: "workload seed (default 42)",
        set: Setter::Count(|s, n| { s.seed = n; Ok(()) }) },
    SpecField { key: "way_prediction", flag: "--way-prediction", alias: None, env: None, arg: "",
        help: "enable MRU way prediction on both L1s", set: Setter::Switch(|s, on| s.way_prediction = on) },
    SpecField { key: "fault_rate", flag: "--fault-rate", alias: None, env: None, arg: "P",
        help: "sense-margin upset probability per cold access, in [0,1] (default 0 = off)",
        set: Setter::Real(|s, rate| if (0.0..=1.0).contains(&rate) { s.faults.rate = rate; Ok(()) }
            else { Err(format!("{rate} is not a probability (want 0 ..= 1)")) }) },
    SpecField { key: "fault_seed", flag: "--fault-seed", alias: None, env: None, arg: "S",
        help: "fault-injector seed (default: a fixed constant)", set: Setter::Count(|s, n| { s.faults.seed = n; Ok(()) }) },
    SpecField { key: "fail_safe", flag: "--fail-safe", alias: None, env: None, arg: "",
        help: "pin upset-prone subarrays back to static pull-up", set: Setter::Switch(|s, on| s.faults.fail_safe = on) },
    SpecField { key: "ecc", flag: "--ecc", alias: None, env: Some("BITLINE_ECC"), arg: "",
        help: "protect words with (72,64) SECDED: singles correct in place, doubles replay as DUEs",
        set: Setter::Switch(|s, on| s.faults.ecc = on) },
    SpecField { key: "scrub_period", flag: "--scrub-period", alias: None, env: Some("BITLINE_SCRUB_PERIOD"),
        arg: "N", help: "background-scrub sweep period in cycles, e.g. 8192 (needs --ecc)",
        set: Setter::Count(|s, n| if n > 0 { s.faults.scrub_period = Some(n); Ok(()) }
            else { Err("0 would scrub continuously; give a period in cycles, e.g. 8192".into()) }) },
    SpecField { key: "levels", flag: "--levels", alias: None, env: None, arg: "N",
        help: "cache levels: 1 = L1s only (default), 2 manages the L2, 3 adds an L3 behind it",
        set: Setter::Count(|s, n| { s.hierarchy.levels = u8::try_from(n).map_err(|e| e.to_string())?; Ok(()) }) },
    SpecField { key: "l2_policy", flag: "--l2-policy", alias: None, env: None, arg: "P",
        help: "outer-level precharge policy (default static; needs --levels 2 or 3)",
        set: Setter::Policy(|s, p| s.hierarchy.l2_policy = p) },
    SpecField { key: "leakage_mode", flag: "--leakage-mode", alias: None, env: None, arg: "M",
        help: "cell-array leakage control on every level, priced only, never cycles (default full-vdd)",
        set: Setter::Leakage(|s, m| s.hierarchy.leakage_mode = m) },
    SpecField { key: "vdd", flag: "--vdd", alias: None, env: Some("BITLINE_VDD"), arg: "S",
        help: "L1 supply as a fraction of nominal, 0.6..=1.1 (default 1.0); below the sense \
               guardband cold reads speculate and mis-senses replay",
        set: Setter::Real(|s, scale| { s.vdd.scale = scale; Ok(()) }) },
    SpecField { key: "vdd_governor", flag: "--vdd-governor", alias: None, env: Some("BITLINE_VDD_GOVERNOR"),
        arg: "", help: "per-subarray guardband ladder: escalate toward nominal on replay storms, \
                        relax when clean, pin after repeated escalation",
        set: Setter::Switch(|s, on| s.vdd.governor = on) },
];

/// Builds a spec the way every front door does: [`SystemSpec::front_door`],
/// then each given input applied in table order, the last one given for a
/// field winning.
///
/// # Errors
///
/// The first field, in table order, whose input is refused, with why: the
/// wrong kind of value, a non-finite number, a `fault_rate` outside
/// `[0, 1]`, a zero `scrub_period`, or a count too large for its field.
pub fn build_spec<'a>(
    given: impl IntoIterator<Item = (&'static SpecField, FieldInput<'a>)>,
) -> Result<SystemSpec, (&'static SpecField, String)> {
    let mut inputs = [None; SPEC_FIELDS.len()];
    for (field, input) in given {
        if let Some(row) = SPEC_FIELDS.iter().position(|f| f.key == field.key) {
            inputs[row] = Some(input);
        }
    }
    let mut spec = SystemSpec::front_door();
    for (field, input) in SPEC_FIELDS.iter().zip(inputs) {
        if let Some(input) = input {
            field.apply(&mut spec, input).map_err(|e| (field, e))?;
        }
    }
    Ok(spec)
}

/// Parses a `bitline-sim` argument list: the [`SPEC_FIELDS`] flags build
/// the spec, and every other argument goes to `other` with the iterator,
/// so it can take its own value.
///
/// # Errors
///
/// A message naming the flag, or whatever `other` returns.
pub fn parse_cli<I: Iterator<Item = String>>(
    mut argv: I,
    mut other: impl FnMut(&str, &mut I) -> Result<(), String>,
) -> Result<SystemSpec, String> {
    let mut given = Vec::new();
    while let Some(arg) = argv.next() {
        match SPEC_FIELDS.iter().find(|f| f.flag == arg || f.alias == Some(arg.as_str())) {
            Some(field) if matches!(field.set, Setter::Switch(_)) => {
                given.push((field, "1".into()))
            }
            Some(field) => {
                given.push((field, argv.next().ok_or_else(|| format!("{arg} needs a value"))?));
            }
            None => other(&arg, &mut argv)?,
        }
    }
    build_spec(given.iter().map(|(field, text)| (*field, FieldInput::Text(text))))
        .map_err(|(field, e)| format!("{}: {e}", field.flag))
}

/// The `bitline-sim --help` lines for the [`SPEC_FIELDS`] flags, each with
/// its environment variable and `bitline-serve` key, then the policy and
/// leakage-mode grammars.
#[must_use]
pub fn spec_help() -> String {
    let mut out = String::new();
    let mut entry = |mut head: &str, text: &str| {
        let mut line = String::new();
        for word in text.split_whitespace() {
            if !line.is_empty() && line.len() + word.len() >= 52 {
                let _ = writeln!(out, "  {head:<24}{line}");
                (head, line) = ("", String::new());
            }
            line = if line.is_empty() { word.to_owned() } else { format!("{line} {word}") };
        }
        let _ = writeln!(out, "  {head:<24}{line}");
    };
    for f in &SPEC_FIELDS {
        let alias = f.alias.map_or_else(|| "    ".to_owned(), |a| format!("{a}, "));
        let env = f.env.map(|var| format!(" (env {var})")).unwrap_or_default();
        entry(&format!("{alias}{} {}", f.flag, f.arg), &format!("{}{env} [{}]", f.help, f.key));
    }
    entry("P (policy)", POLICY_GRAMMAR);
    entry("M (leakage mode)", &LeakageKind::ALL.map(|m| m.label()).join(" | "));
    out
}

/// Applies each set, non-empty [`SPEC_FIELDS`] environment variable to
/// `spec`. A malformed one is skipped, and the first is returned, named:
/// the binaries refuse it at startup (`init_supervision_from_env`) instead of
/// silently running the default.
pub(crate) fn apply_env(spec: &mut SystemSpec) -> Result<(), String> {
    let mut first_error = Ok(());
    for field in &SPEC_FIELDS {
        let Some(var) = field.env else { continue };
        let Some(text) = std::env::var(var).ok().filter(|t| !t.is_empty()) else { continue };
        if let Err(e) = field.apply(spec, FieldInput::Text(&text)) {
            first_error = first_error.and(Err(format!("{var}={text}: {e}")));
        }
    }
    first_error
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_build_for_all_nodes() {
        let cache = CacheConfig::l1_data();
        for node in TechnologyNode::ALL {
            for kind in [
                PolicyKind::StaticPullUp,
                PolicyKind::Oracle,
                PolicyKind::OnDemand,
                PolicyKind::Gated { threshold: 100 },
                PolicyKind::GatedPredecode { threshold: 100 },
                PolicyKind::Resizable { interval_accesses: 1000, slack: 0.005 },
                PolicyKind::AdaptiveGated { interval_accesses: 500 },
                PolicyKind::LeakageBiased,
                PolicyKind::Drowsy { threshold: 100 },
            ] {
                let p = kind.build(&cache, node, None);
                assert!(!p.name().is_empty());
            }
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(SystemSpec::default().validate().is_ok());
        let bad = SystemSpec { subarray_bytes: 1000, ..SystemSpec::default() };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec { subarray_bytes: 65536, ..SystemSpec::default() };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec { instructions: 0, ..SystemSpec::default() };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec {
            faults: FaultSpec { rate: 1.5, ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        // Fault-flag validation rides on FaultConfig::validate: a zero
        // scrub period and scrubbing without ECC both fail fast here
        // instead of propagating into the fault layer.
        let bad = SystemSpec {
            faults: FaultSpec { ecc: true, scrub_period: Some(0), ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("scrub period"), "{msg}"),
            other => panic!("zero scrub period must be rejected, got {other:?}"),
        }
        let bad = SystemSpec {
            faults: FaultSpec { ecc: false, scrub_period: Some(4096), ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("requires ECC"), "{msg}"),
            other => panic!("scrub without ecc must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn fault_spec_default_is_disabled() {
        let spec = FaultSpec::default();
        assert!(!spec.enabled());
        assert!(!spec.protected());
        let cfg = spec.to_config(3, 0, 128);
        assert!(!cfg.enabled());
        assert_eq!(cfg.retry_cycles, 4);
        assert_eq!(cfg.pullup_penalty, 3);
        assert_eq!(cfg.subarray_words, 128);
    }

    #[test]
    fn to_config_arms_the_ladder_only_with_ecc_and_fail_safe() {
        let spec = FaultSpec { rate: 0.1, ecc: true, fail_safe: true, ..FaultSpec::default() };
        let cfg = spec.to_config(2, 1, 64);
        assert!(cfg.ecc);
        assert_eq!(cfg.fail_safe_threshold, Some(FaultSpec::FAIL_SAFE_UPSETS));
        assert_eq!(cfg.scrub_on_detect_threshold, Some(FaultSpec::SCRUB_ON_DETECT_ERRORS));
        assert!(spec.protected());
        let unladdered = FaultSpec { fail_safe: false, ..spec };
        assert_eq!(unladdered.to_config(2, 1, 64).scrub_on_detect_threshold, None);
        let unprotected = FaultSpec { ecc: false, ..spec };
        assert_eq!(unprotected.to_config(2, 1, 64).scrub_on_detect_threshold, None);
        assert!(!unprotected.protected());
    }

    #[test]
    fn distinct_specs_never_collide_on_the_obvious_fields() {
        // One variant per field the run cache must discriminate: policies
        // (including same-threshold Gated vs GatedPredecode and
        // bit-different Resizable slacks), subarray size, instruction
        // count, seed, way prediction and every FaultSpec field.
        let base = SystemSpec::default();
        let specs = vec![
            base,
            SystemSpec { d_policy: PolicyKind::Oracle, ..base },
            SystemSpec { d_policy: PolicyKind::OnDemand, ..base },
            SystemSpec { d_policy: PolicyKind::Gated { threshold: 100 }, ..base },
            SystemSpec { d_policy: PolicyKind::Gated { threshold: 200 }, ..base },
            SystemSpec { d_policy: PolicyKind::GatedPredecode { threshold: 100 }, ..base },
            SystemSpec { d_policy: PolicyKind::Drowsy { threshold: 100 }, ..base },
            SystemSpec { d_policy: PolicyKind::AdaptiveGated { interval_accesses: 100 }, ..base },
            SystemSpec {
                d_policy: PolicyKind::Resizable { interval_accesses: 100, slack: 0.005 },
                ..base
            },
            SystemSpec {
                d_policy: PolicyKind::Resizable { interval_accesses: 100, slack: 0.01 },
                ..base
            },
            SystemSpec { i_policy: PolicyKind::Gated { threshold: 100 }, ..base },
            SystemSpec { subarray_bytes: 2048, ..base },
            SystemSpec { instructions: base.instructions + 1, ..base },
            SystemSpec { seed: 43, ..base },
            SystemSpec { way_prediction: true, ..base },
            SystemSpec { faults: FaultSpec { rate: 0.01, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { rate: 0.02, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { seed: 1, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { fail_safe: true, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { ecc: true, ..FaultSpec::default() }, ..base },
            SystemSpec {
                faults: FaultSpec { ecc: true, scrub_period: Some(4096), ..FaultSpec::default() },
                ..base
            },
            SystemSpec {
                faults: FaultSpec { ecc: true, scrub_period: Some(8192), ..FaultSpec::default() },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec { levels: 2, ..HierarchySpec::default() },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec { levels: 3, ..HierarchySpec::default() },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec {
                    levels: 2,
                    l2_policy: PolicyKind::Gated { threshold: 100 },
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec {
                    leakage_mode: bitline_energy::LeakageKind::Drowsy,
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec {
                    leakage_mode: bitline_energy::LeakageKind::GatedVdd,
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec { vdd: VddSpec { scale: 0.9, governor: false }, ..base },
            SystemSpec { vdd: VddSpec { scale: 0.8, governor: false }, ..base },
            SystemSpec { vdd: VddSpec { scale: 0.9, governor: true }, ..base },
        ];
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a, b, "specs at different fields must differ");
            }
        }
        // As HashMap keys, every distinct spec is a distinct entry...
        let keyed: std::collections::HashSet<SystemSpec> = specs.iter().copied().collect();
        assert_eq!(keyed.len(), specs.len());
        // ...and an equal spec finds the existing one.
        assert!(keyed.contains(&SystemSpec::default()));
    }

    #[test]
    fn hierarchy_default_is_inert_and_validates() {
        let h = HierarchySpec::default();
        assert!(h.is_default());
        assert!(!h.active());
        assert!(h.validate().is_ok());
        assert!(SystemSpec::default().hierarchy.is_default());
    }

    #[test]
    fn hierarchy_validation_rejects_bad_levels_and_recorder() {
        let bad = SystemSpec {
            hierarchy: HierarchySpec { levels: 0, ..HierarchySpec::default() },
            ..SystemSpec::default()
        };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec {
            hierarchy: HierarchySpec { levels: 4, ..HierarchySpec::default() },
            ..SystemSpec::default()
        };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec {
            hierarchy: HierarchySpec {
                levels: 2,
                l2_policy: PolicyKind::LocalityRecorder,
                ..HierarchySpec::default()
            },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("recorder"), "{msg}"),
            other => panic!("recorder as L2 policy must be rejected, got {other:?}"),
        }
        // A managed L2 and a deeper leakage mode both validate.
        let ok = SystemSpec {
            hierarchy: HierarchySpec {
                levels: 3,
                l2_policy: PolicyKind::Gated { threshold: 100 },
                leakage_mode: bitline_energy::LeakageKind::Drowsy,
            },
            ..SystemSpec::default()
        };
        assert!(ok.validate().is_ok());
        assert!(ok.hierarchy.active());
        assert!(!ok.hierarchy.is_default());
    }

    #[test]
    fn vdd_nominal_is_inert_and_validation_rejects_bad_supplies() {
        let nominal = VddSpec::nominal();
        assert!(nominal.is_default());
        assert!(nominal.validate().is_ok());
        // A governed nominal supply is *not* the inert default: it keys a
        // distinct run-cache entry and a distinct checkpoint spec block.
        assert!(!VddSpec { governor: true, ..nominal }.is_default());
        assert!(!VddSpec { scale: 0.9, governor: false }.is_default());
        // The modelled band validates; outside it fails fast.
        assert!(VddSpec { scale: 0.6, governor: false }.validate().is_ok());
        assert!(VddSpec { scale: 1.1, governor: true }.validate().is_ok());
        for bad in [0.5, 1.2, -1.0, 0.0] {
            assert!(VddSpec { scale: bad, governor: false }.validate().is_err(), "{bad}");
        }
        // Satellite: non-finite supplies carry an explicit message.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = VddSpec { scale: bad, governor: false }.validate().unwrap_err();
            assert!(err.contains("finite"), "{err}");
        }
        // And the whole-spec validator routes through it.
        let bad = SystemSpec {
            vdd: VddSpec { scale: f64::NAN, governor: false },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("NaN vdd must be rejected, got {other:?}"),
        }
        // NaN compares equal to itself by bit pattern (run-cache keying).
        let a = VddSpec { scale: f64::NAN, governor: false };
        assert_eq!(a, a);
    }

    #[test]
    fn vdd_ladders_expand_aggressive_to_nominal() {
        // Static: one rung at the requested scale.
        let static_cfg = VddSpec { scale: 0.8, governor: false }
            .to_config(TechnologyNode::N70)
            .expect("non-default spec expands");
        assert_eq!(static_cfg.steps.len(), 1);
        assert_eq!(static_cfg.steps[0].scale.to_bits(), 0.8f64.to_bits());
        assert!(static_cfg.governor.is_none());
        assert!(static_cfg.speculating(), "0.8 Vdd at 70nm is below the guardband");
        assert!(static_cfg.validate().is_ok());
        // Governed: aggressive -> halfway -> nominal, nominal upset-free.
        let governed = VddSpec { scale: 0.8, governor: true }
            .to_config(TechnologyNode::N70)
            .expect("non-default spec expands");
        assert_eq!(governed.steps.len(), 3);
        assert_eq!(governed.steps[1].scale.to_bits(), 0.9f64.to_bits());
        assert_eq!(governed.steps[2].scale.to_bits(), 1.0f64.to_bits());
        assert_eq!(governed.steps[2].upset_probability, 0.0);
        assert!(governed.governor.is_some());
        assert!(governed.validate().is_ok());
        // Overdrive never ladders and never speculates.
        let over = VddSpec { scale: 1.05, governor: true }
            .to_config(TechnologyNode::N70)
            .expect("non-default spec expands");
        assert_eq!(over.steps.len(), 1);
        assert!(!over.speculating());
        // The inert default expands to nothing at all.
        assert!(VddSpec::nominal().to_config(TechnologyNode::N70).is_none());
        // A guardband-safe undervolt expands (for pricing) but does not
        // speculate (no decorator).
        let safe = VddSpec { scale: 0.98, governor: false }
            .to_config(TechnologyNode::N70)
            .expect("expands");
        assert!(!safe.speculating());
    }

    #[test]
    fn every_policy_in_the_error_hint_parses() {
        let hint = "warp".parse::<PolicyKind>().unwrap_err();
        let entries: Vec<&str> = POLICY_GRAMMAR.split(" | ").collect();
        let families: Vec<&str> = entries.iter().map(|e| e.split(':').next().unwrap()).collect();
        for (entry, family) in entries.iter().zip(&families) {
            assert!(hint.contains(entry), "the hint omits {entry}: {hint}");
            // Bare (default parameter) and with an explicit one.
            let bare = family.parse::<PolicyKind>().unwrap();
            if entry.contains(':') {
                let explicit = format!("{family}:7").parse::<PolicyKind>().unwrap();
                assert_ne!(bare, explicit, "{entry}");
            }
        }
        // One entry per family: every policy label is covered.
        let labels: std::collections::HashSet<&str> =
            families.iter().map(|f| f.parse::<PolicyKind>().unwrap().label()).collect();
        assert_eq!(labels.len(), entries.len());
    }

    #[test]
    fn predecode_flag_only_for_gated_predecode() {
        assert!(PolicyKind::GatedPredecode { threshold: 100 }.wants_predecode());
        assert!(!PolicyKind::Gated { threshold: 100 }.wants_predecode());
        assert!(!PolicyKind::OnDemand.wants_predecode());
    }
}
