//! The correctness gate: the benchmark prints no number unless every
//! run's report is internally consistent, repeats byte for byte at the
//! same seed, and the traced replay did exactly the work that was timed.

use crate::replay::Replay;
use crate::workloads::Workload;
use tapestry_workload::{RunTotals, ScenarioReport};

/// Check one report's invariants and op accounting.
pub fn check_report(w: Workload, r: &ScenarioReport) -> Result<(), String> {
    let mut checked = 0;
    for p in &r.phases {
        let o = &p.ops;
        if o.issued != o.completed + o.lost {
            return Err(format!(
                "phase {}: issued {} != completed {} + lost {}",
                p.name, o.issued, o.completed, o.lost
            ));
        }
        if o.completed != o.found_live + o.found_dead + o.not_found {
            return Err(format!(
                "phase {}: completed {} != found_live {} + found_dead {} + not_found {}",
                p.name, o.completed, o.found_live, o.found_dead, o.not_found
            ));
        }
        let Some(inv) = p.invariants else { continue };
        checked += 1;
        if inv.prop1_violations > 0 {
            return Err(format!(
                "phase {}: {} Property 1 violations",
                p.name, inv.prop1_violations
            ));
        }
        if inv.roots_unique < inv.roots_sampled {
            return Err(format!(
                "phase {}: only {} of {} sampled objects have a unique root",
                p.name, inv.roots_unique, inv.roots_sampled
            ));
        }
        if w.tables_must_be_optimal() && inv.prop2_optimal < inv.prop2_total {
            return Err(format!(
                "phase {}: Property 2 holds for {} of {} slots",
                p.name, inv.prop2_optimal, inv.prop2_total
            ));
        }
    }
    if checked == 0 {
        return Err("no phase ran the invariant checks".into());
    }
    if r.total_ops.issued == 0 {
        return Err("no locate was issued".into());
    }
    Ok(())
}

/// Repetitions of one run, checked against the first.
#[derive(Default)]
pub struct Repeats {
    first: Option<(ScenarioReport, RunTotals, String)>,
}

impl Repeats {
    /// Gate `report` and require it (and its totals) to equal the first
    /// repetition's byte for byte.
    pub fn check(
        &mut self,
        w: Workload,
        report: ScenarioReport,
        totals: RunTotals,
    ) -> Result<(), String> {
        check_report(w, &report)?;
        let json = report.to_json();
        match &self.first {
            None => self.first = Some((report, totals, json)),
            Some((_, t0, j0)) => {
                if *j0 != json {
                    return Err("two same-seed runs produced different reports".into());
                }
                if *t0 != totals {
                    return Err(format!("same-seed run totals differ: {t0:?} vs {totals:?}"));
                }
            }
        }
        Ok(())
    }

    /// The first repetition's report and totals.
    pub fn first(&self) -> Option<(&ScenarioReport, &RunTotals)> {
        self.first.as_ref().map(|(r, t, _)| (r, t))
    }
}

/// The traced replay must have done the timed run's work exactly.
pub fn check_fidelity(
    replay: &Replay,
    report: &ScenarioReport,
    totals: &RunTotals,
) -> Result<(), String> {
    let pairs = [
        ("events", replay.events, totals.events),
        ("messages", replay.messages, totals.messages),
        ("timers", replay.timers, totals.timers),
        ("issued", replay.issued, report.total_ops.issued),
        ("found_live", replay.found_live, report.total_ops.found_live),
    ];
    for (name, traced, timed) in pairs {
        if traced != timed {
            return Err(format!("traced replay {name} {traced} != timed run {name} {timed}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_workload::{InvariantReport, OpStats, PhaseReport};

    fn report(ops: OpStats, inv: InvariantReport) -> ScenarioReport {
        let phase =
            PhaseReport { name: "p".into(), ops, invariants: Some(inv), ..Default::default() };
        ScenarioReport { phases: vec![phase], total_ops: ops, ..Default::default() }
    }

    #[test]
    fn gate_rejects_each_broken_condition() {
        let ops = OpStats { issued: 4, completed: 4, found_live: 4, ..Default::default() };
        let inv = InvariantReport {
            prop2_optimal: 10,
            prop2_total: 10,
            roots_sampled: 3,
            roots_unique: 3,
            ..Default::default()
        };
        assert!(check_report(Workload::AppMix, &report(ops, inv)).is_ok());

        let lost = OpStats { completed: 3, found_live: 3, ..ops };
        assert!(check_report(Workload::AppMix, &report(lost, inv)).is_err());
        let unexplained = OpStats { found_live: 3, ..ops };
        assert!(check_report(Workload::AppMix, &report(unexplained, inv)).is_err());
        let prop1 = InvariantReport { prop1_violations: 1, ..inv };
        assert!(check_report(Workload::ChurnRepair, &report(ops, prop1)).is_err());
        let roots = InvariantReport { roots_unique: 2, ..inv };
        assert!(check_report(Workload::ChurnRepair, &report(ops, roots)).is_err());
        let prop2 = InvariantReport { prop2_optimal: 9, ..inv };
        assert!(check_report(Workload::StaticLarge, &report(ops, prop2)).is_err());
        assert!(check_report(Workload::ChurnRepair, &report(ops, prop2)).is_ok());
    }

    #[test]
    fn repeats_reject_a_different_report() {
        let ops = OpStats { issued: 1, completed: 1, found_live: 1, ..Default::default() };
        let inv = InvariantReport { roots_sampled: 1, roots_unique: 1, ..Default::default() };
        let mut reps = Repeats::default();
        let totals = RunTotals::default();
        reps.check(Workload::ChurnRepair, report(ops, inv), totals).unwrap();
        reps.check(Workload::ChurnRepair, report(ops, inv), totals).unwrap();
        let mut other = report(ops, inv);
        other.seed = 1;
        assert!(reps.check(Workload::ChurnRepair, other, totals).is_err());
        let more = RunTotals { events: 1, ..totals };
        assert!(reps.check(Workload::ChurnRepair, report(ops, inv), more).is_err());
    }
}
