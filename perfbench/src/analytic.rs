//! The model's error against the paper's closed forms (eqs. 11 and 12).
//!
//! Predictions are computed exactly as the conformance crate's
//! `sim-vs-analytic` pair computes them: from the realized write fraction
//! of the measured window, in the simulator's own [`MsgSizing`], with the
//! update multicast cost (`cc4`) averaged over the `n` possible writers of
//! an `n`-task sharing set on an `N`-port network. The closed forms
//! describe the §4 shared-block workload (n tasks share blocks, one writer
//! per block), so that workload is what every probe measures. There is no
//! hardware reference: the model is validated against eqs. 11/12 only.
//!
//! The probes run on fixed inputs ([`PROBE_SEED`]), not on the run's seed:
//! the simulator matches the closed forms to about 0.1 %, so on seeded
//! inputs the error is sampling noise whose spread across seeds is half its
//! median or more. On fixed inputs it reads the same on every run and
//! moves only when the simulated model changes.

use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::MsgSizing;
use tmc_omeganet::{DestSet, Omega, SchemeKind};
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

use crate::drive::{self, Step};

/// Predicted steady-state bits per reference `(fixed DW, fixed GR)` for
/// `n` sharing tasks on `big_n` ports at write fraction `w`.
fn predict(big_n: usize, n: usize, w: f64) -> (f64, f64) {
    let sizing = MsgSizing::default();
    let net = Omega::with_ports(big_n).expect("machine sizes are valid network sizes");
    let mut cc4_sum = 0u64;
    for writer in 0..n {
        let dests =
            DestSet::from_ports(big_n, (0..n).filter(|&p| p != writer)).expect("ports in range");
        cc4_sum += net
            .multicast_cost(SchemeKind::Combined, &dests, sizing.update_bits())
            .expect("nonempty sharing set");
    }
    let cc4 = cc4_sum as f64 / n as f64;
    let one = DestSet::from_ports(big_n, [1usize]).expect("port 1 exists");
    let single = |bits| {
        net.multicast_cost(SchemeKind::Replicated, &one, bits)
            .expect("one port") as f64
    };
    let remote_read = single(sizing.request_bits()) + single(sizing.datum_bits());
    let remote_fraction = (n - 1) as f64 / n as f64;
    (w * cc4, (1.0 - w) * remote_fraction * remote_read)
}

/// `|measured / predicted − 1|`.
fn rel_err(measured: f64, predicted: f64) -> f64 {
    (measured / predicted - 1.0).abs()
}

/// The §4 shared-block trace the probes and the fig8 grid use: `n` tasks
/// over `2n` adjacent blocks.
pub fn shared_block_steps(big_n: usize, n: usize, w: f64, refs: usize, seed: u64) -> Vec<Step> {
    let trace = SharedBlockWorkload::new(n, 2 * n as u64, w)
        .references(refs)
        .placement(Placement::Adjacent { base: 0 })
        .generate(big_n, &mut SimRng::seed_from(seed));
    drive::script(&trace)
}

/// Steady-state bits per reference of `steps[warmup..]` on a fixed-mode
/// machine, every read checked.
fn measure_fixed(big_n: usize, mode: Mode, steps: &[Step], warmup: usize) -> Result<f64, String> {
    let mut sys = System::new(SystemConfig::new(big_n).mode_policy(ModePolicy::Fixed(mode)))
        .map_err(|e| e.to_string())?;
    let origin = std::time::Instant::now();
    let failed = drive::execute::<_, false>(&mut sys, &steps[..warmup], origin, &mut Vec::new())?;
    let base = sys.traffic().total_bits();
    let failed =
        failed + drive::execute::<_, false>(&mut sys, &steps[warmup..], origin, &mut Vec::new())?;
    if failed > 0 {
        return Err(format!("analytic probe: {failed} operations failed"));
    }
    sys.check_invariants().map_err(|e| e.to_string())?;
    Ok((sys.traffic().total_bits() - base) as f64 / (steps.len() - warmup) as f64)
}

/// Seed of the probes' inputs (the conformance pair's `0xA11A`).
pub const PROBE_SEED: u64 = 0xA11A;
/// References per analytic probe, after [`PROBE_WARMUP`] unbilled ones.
const PROBE_REFS: usize = 100_000;
/// Unbilled warm-up of an analytic probe.
const PROBE_WARMUP: usize = 4_000;

/// Mean relative error of fixed DW against eq. 11 and fixed GR against
/// eq. 12 on the shared-block workload at (`big_n`, `n`, `w`).
pub fn probe(big_n: usize, n: usize, w: f64, seed: u64) -> Result<f64, String> {
    let steps = shared_block_steps(big_n, n, w, PROBE_WARMUP + PROBE_REFS, seed);
    let w_emp = drive::write_fraction(&steps[PROBE_WARMUP..]);
    let (pred_dw, pred_gr) = predict(big_n, n, w_emp);
    let dw = measure_fixed(big_n, Mode::DistributedWrite, &steps, PROBE_WARMUP)?;
    let gr = measure_fixed(big_n, Mode::GlobalRead, &steps, PROBE_WARMUP)?;
    Ok((rel_err(dw, pred_dw) + rel_err(gr, pred_gr)) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_follow_the_write_fraction() {
        let (dw0, gr0) = predict(16, 8, 0.0);
        let (dw1, gr1) = predict(16, 8, 1.0);
        assert_eq!((dw0, gr1), (0.0, 0.0));
        assert!(dw1 > 0.0 && gr0 > 0.0);
    }

    /// The error stays at the fixed inputs' level on seeds the benchmark
    /// never uses.
    #[test]
    fn probe_error_holds_on_unseen_seeds() {
        for seed in [PROBE_SEED, 2, 7_310_466] {
            let err = probe(16, 8, 0.2, seed).unwrap();
            assert!(err > 0.0 && err < 0.01, "seed {seed}: {err}");
        }
    }
}
