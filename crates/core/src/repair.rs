//! The main concolic repair loop: the paper's Algorithm 1.
//!
//! `repair` drives the three phases — pool construction, path exploration
//! (generational search with *path reduction*: prefixes no patch can
//! exercise are skipped), and patch reduction — and produces a
//! [`RepairReport`] carrying every statistic the paper's evaluation tables
//! use (`|P_Init|`, `|P_Final|`, reduction ratio, `φ_E`, `φ_S`, developer
//! patch rank, patch/bug-location hit ratios, and the anytime history).

use cpr_concolic::CandidateInput;
use cpr_smt::{Model, SatResult, TermId};

use crate::lower::lower_expr_src;
use crate::problem::{RepairConfig, RepairProblem};
use crate::ranking::PoolEntry;
use crate::session::Session;

/// One ranked patch in the final report.
#[derive(Debug, Clone)]
pub struct RankedPatch {
    /// Pool identifier of the patch.
    pub id: usize,
    /// Rendered template plus parameter constraint.
    pub display: String,
    /// Scalar ranking value (higher is better).
    pub score: i64,
    /// Number of concrete patches covered.
    pub concrete: u128,
    /// Accumulated functionality-deletion evidence.
    pub deletion_evidence: u32,
}

/// Everything the evaluation needs from one repair run.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Subject name.
    pub subject: String,
    /// `|P_Init|`: concrete patches after Phase 1.
    pub p_init: u128,
    /// `|P_Final|`: concrete patches at the end of the run.
    pub p_final: u128,
    /// Abstract patches after Phase 1.
    pub abstract_init: usize,
    /// Abstract patches at the end.
    pub abstract_final: usize,
    /// `φ_E`: distinct program paths explored for refinement.
    pub paths_explored: usize,
    /// `φ_S`: path prefixes skipped because no patch could exercise them.
    pub paths_skipped: usize,
    /// Repair-loop iterations executed.
    pub iterations: usize,
    /// Inputs generated by the exploration (excluding the provided tests).
    pub inputs_generated: usize,
    /// Of all executed generated inputs, the fraction that hit the patch
    /// location (Table 6).
    pub patch_loc_hit_ratio: f64,
    /// Of all executed generated inputs, the fraction that hit the bug
    /// location (Table 6).
    pub bug_loc_hit_ratio: f64,
    /// Final pool in ranking order.
    pub ranked: Vec<RankedPatch>,
    /// 1-based rank of the developer patch (if provided and found).
    pub dev_rank: Option<usize>,
    /// Pool size (concrete patches) after each iteration — the anytime /
    /// gradual-correctness curve.
    pub history: Vec<u128>,
    /// The repaired program source with the top-ranked patch (at its
    /// representative parameters) spliced into the hole, when it can be
    /// rendered in the subject language.
    pub top_patched_source: Option<String>,
    /// Share of the input space covered by the explored partitions (paper
    /// §1: "the longer it is run, the greater is the coverage of the input
    /// space"). Computed by model counting when
    /// [`RepairConfig::track_coverage`] is set; an estimate, since
    /// partitions explored under different patches may overlap.
    pub input_coverage: Option<f64>,
    /// Wall-clock milliseconds spent.
    pub wall_millis: u64,
    /// Total solver queries issued.
    pub solver_queries: u64,
}

impl RepairReport {
    /// Patch-space reduction ratio `1 − |P_Final| / |P_Init|` in percent.
    pub fn reduction_ratio(&self) -> f64 {
        if self.p_init == 0 {
            return 0.0;
        }
        (1.0 - (self.p_final as f64) / (self.p_init as f64)) * 100.0
    }
}

/// Runs concolic program repair on `problem` (Algorithm 1): a thin loop
/// over [`crate::RepairDriver`], which holds the actual state machine
/// (step-wise execution, snapshot/resume). Budget exhaustion — iterations
/// or wall clock — is a normal stop: the report carries the current ranked
/// pool, exactly as the anytime algorithm promises.
pub fn repair(problem: &RepairProblem, config: &RepairConfig) -> RepairReport {
    let mut driver = crate::driver::RepairDriver::new(problem.clone(), config.clone());
    while driver.step() == crate::driver::StepStatus::Running {}
    driver.finish()
}

/// Picks the best-ranked patch compatible with the candidate's stored
/// parameter values; if the stored parameters died with refinement, falls
/// back to the top-ranked patch's representative. Returns `None` when the
/// ranked order is empty (every entry died between ranking and selection) —
/// callers must treat that as pool exhaustion rather than indexing into an
/// empty order.
pub(crate) fn select_patch(
    entries: &[PoolEntry],
    order: &[usize],
    candidate: &CandidateInput,
) -> Option<(TermId, Model)> {
    for &i in order {
        let patch = &entries[i].patch;
        let stored: Vec<i64> = patch
            .params
            .iter()
            .map(|&p| candidate.model.int(p).unwrap_or(i64::MIN))
            .collect();
        let stored_ok = !stored.contains(&i64::MIN)
            && (patch.is_concrete() || patch.constraint.contains_point(&stored));
        if stored_ok {
            let mut m = Model::new();
            for (&p, &v) in patch.params.iter().zip(&stored) {
                m.set(p, v);
            }
            return Some((patch.theta, m));
        }
    }
    let &first = order.first()?;
    let patch = &entries[first].patch;
    Some((patch.theta, patch.representative().unwrap_or_default()))
}

pub(crate) fn ratio(hits: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

pub(crate) fn pool_volume(entries: &[PoolEntry]) -> u128 {
    entries.iter().map(|e| e.patch.concrete_count()).sum()
}

/// Finds the 1-based rank of the developer patch in the final pool: the
/// first ranked patch that is syntactically the developer template (with
/// the developer parameter values inside its region) or semantically
/// equivalent to the developer expression over the whole input space.
pub fn developer_rank(
    sess: &mut Session,
    problem: &RepairProblem,
    entries: &[PoolEntry],
    order: &[usize],
    dev_src: &str,
) -> Option<usize> {
    let dev = lower_expr_src(&mut sess.pool, dev_src).ok()?;
    for (pos, &i) in order.iter().enumerate() {
        if patch_covers(sess, problem, &entries[i], dev) {
            return Some(pos + 1);
        }
    }
    None
}

/// Whether `entry` covers the developer expression: some parameter
/// assignment inside its region makes the template semantically equivalent
/// to `dev` over the (bounded) input space. Decided by counterexample-guided
/// search: solve for parameters agreeing with `dev` on a probe set, verify
/// full equivalence, and on failure add the distinguishing input as a new
/// probe.
fn patch_covers(
    sess: &mut Session,
    problem: &RepairProblem,
    entry: &PoolEntry,
    dev: TermId,
) -> bool {
    let theta = entry.patch.theta;
    if entry.patch.is_concrete() {
        return equivalent(sess, theta, dev);
    }
    // The equivalence domain is the free variables of the two expressions
    // (the hole's visible variables — these may be derived locals, not
    // program inputs), excluding the template parameters.
    let mut free_vars: Vec<cpr_smt::VarId> = Vec::new();
    for v in sess
        .pool
        .vars_of(theta)
        .into_iter()
        .chain(sess.pool.vars_of(dev))
    {
        if !entry.patch.params.contains(&v) && !free_vars.contains(&v) {
            free_vars.push(v);
        }
    }
    let mut probes = probe_assignments(sess, problem, &free_vars);
    let region_term = entry.patch.constraint_term(&mut sess.pool);
    for _round in 0..16 {
        // Solve for parameters: θ(x_probe, A) agrees with dev(x_probe) for
        // every probe, within the region.
        let mut constraints: Vec<TermId> = vec![region_term];
        for probe in &probes {
            let mut map = std::collections::HashMap::new();
            for &v in &free_vars {
                let val = probe.int(v).unwrap_or(0);
                let c = sess.pool.int(val);
                map.insert(v, c);
            }
            let theta_inst = sess.pool.substitute(theta, &map);
            let dev_inst = sess.pool.substitute(dev, &map);
            let agree = if sess.pool.sort(theta_inst) == cpr_smt::Sort::Int
                && sess.pool.sort(dev_inst) == cpr_smt::Sort::Int
            {
                sess.pool.eq(theta_inst, dev_inst)
            } else {
                sess.pool.iff(theta_inst, dev_inst)
            };
            constraints.push(agree);
        }
        let SatResult::Sat(model) = sess.check(&constraints) else {
            return false; // no parameter value agrees on the probes
        };
        // Verify the candidate parameter point for full equivalence.
        let mut map = std::collections::HashMap::new();
        for &p in &entry.patch.params {
            let val = model.int(p).unwrap_or(0);
            let c = sess.pool.int(val);
            map.insert(p, c);
        }
        let theta_inst = sess.pool.substitute(theta, &map);
        let disagree = if sess.pool.sort(theta_inst) == cpr_smt::Sort::Int
            && sess.pool.sort(dev) == cpr_smt::Sort::Int
        {
            sess.pool.ne(theta_inst, dev)
        } else {
            let iff = sess.pool.iff(theta_inst, dev);
            sess.pool.not(iff)
        };
        let disagree = sess.pool.simplify(disagree);
        match sess.check(&[disagree]) {
            SatResult::Unsat => return true,
            SatResult::Sat(cex) => {
                // The distinguishing assignment becomes a new probe.
                probes.push(cex.restrict_to(&free_vars));
            }
            SatResult::Unknown => return false,
        }
    }
    false
}

/// Semantic equivalence of two terms over the bounded input space:
/// boolean terms via bi-implication, integer terms via equality — decided by
/// checking that a disagreeing input is unsatisfiable.
pub fn equivalent(sess: &mut Session, a: TermId, b: TermId) -> bool {
    use cpr_smt::Sort;
    let neq = if sess.pool.sort(a) == Sort::Int && sess.pool.sort(b) == Sort::Int {
        sess.pool.ne(a, b)
    } else {
        let iff = sess.pool.iff(a, b);
        sess.pool.not(iff)
    };
    // Structural simplification folds complementary literals (`t ∧ ¬t`),
    // which pure interval bisection cannot refute over wide domains.
    let neq = sess.pool.simplify(neq);
    matches!(sess.check(&[neq]), SatResult::Unsat)
}

/// Probe assignments for developer-patch matching over the given free
/// variables: range corners / centre / near-zero values for input
/// variables, a fixed spread for derived locals — combined coordinate-wise
/// (capped at 64 probes).
fn probe_assignments(
    sess: &mut Session,
    problem: &RepairProblem,
    free_vars: &[cpr_smt::VarId],
) -> Vec<Model> {
    let mut probes: Vec<Model> = vec![Model::new()];
    for &var in free_vars {
        let name = sess.pool.var_name(var).to_owned();
        let mut values: Vec<i64> = match problem.program.input_range(&name) {
            Some((lo, hi)) => {
                let mut v = vec![lo, hi, (lo + hi) / 2];
                for c in [-1, 0, 1] {
                    if c >= lo && c <= hi && !v.contains(&c) {
                        v.push(c);
                    }
                }
                v
            }
            // Derived local: a fixed spread around the parameter range.
            None => vec![-20, -11, -1, 0, 1, 11, 20],
        };
        values.dedup();
        let mut next = Vec::new();
        for base in &probes {
            for &v in &values {
                if next.len() >= 64 {
                    break;
                }
                let mut m = base.clone();
                m.set(var, v);
                next.push(m);
            }
        }
        probes = next;
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_input;
    use cpr_lang::{check, parse};
    use cpr_synth::{ComponentSet, SynthConfig};

    const DIV_SRC: &str = "program cve_2016_3623 {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    fn problem() -> RepairProblem {
        let program = parse(DIV_SRC).unwrap();
        check(&program).unwrap();
        RepairProblem::new(
            "Libtiff/CVE-2016-3623",
            program,
            ComponentSet::new()
                .with_all_comparisons()
                .with_logic()
                .with_variables(["x", "y"])
                .with_constants(&[0]),
            SynthConfig::default(),
            vec![test_input(&[("x", 7), ("y", 0)])],
        )
        .with_developer_patch("x == 0 || y == 0")
    }

    #[test]
    fn end_to_end_repair_reduces_patch_space() {
        let problem = problem();
        let report = repair(&problem, &RepairConfig::quick());
        assert!(report.p_init > 0);
        assert!(
            report.p_final < report.p_init,
            "no reduction: init={} final={}",
            report.p_init,
            report.p_final
        );
        assert!(report.reduction_ratio() > 0.0);
        assert!(report.paths_explored >= 1);
        assert!(!report.ranked.is_empty());
    }

    #[test]
    fn developer_patch_is_found_and_ranked() {
        let problem = problem();
        let report = repair(&problem, &RepairConfig::quick());
        let rank = report
            .dev_rank
            .expect("developer patch should be covered by the pool");
        assert!(
            rank <= 10,
            "developer patch ranked too low: {rank}; pool: {:?}",
            report
                .ranked
                .iter()
                .take(10)
                .map(|r| (&r.display, r.score))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn anytime_history_is_monotone_nonincreasing() {
        let problem = problem();
        let report = repair(&problem, &RepairConfig::quick());
        for w in report.history.windows(2) {
            assert!(w[1] <= w[0], "pool grew: {:?}", report.history);
        }
    }

    #[test]
    fn longer_budget_reduces_at_least_as_much() {
        let problem = problem();
        let short = repair(
            &problem,
            &RepairConfig {
                max_iterations: 4,
                ..RepairConfig::quick()
            },
        );
        let long = repair(
            &problem,
            &RepairConfig {
                max_iterations: 40,
                ..RepairConfig::quick()
            },
        );
        assert!(long.p_final <= short.p_final);
    }

    #[test]
    fn coverage_tracking_reports_a_sane_share() {
        let problem = problem();
        let off = repair(&problem, &RepairConfig::quick());
        assert_eq!(off.input_coverage, None);
        let on = repair(
            &problem,
            &RepairConfig {
                track_coverage: true,
                ..RepairConfig::quick()
            },
        );
        let cov = on.input_coverage.expect("coverage tracked");
        assert!((0.0..=1.0).contains(&cov), "coverage {cov}");
        assert!(cov > 0.0, "at least the failing partition is covered");
    }

    #[test]
    fn top_patch_is_rendered_as_source() {
        let problem = problem();
        let report = repair(&problem, &RepairConfig::quick());
        let src = report.top_patched_source.expect("patched source rendered");
        // The patched program parses, checks, and no longer has a hole.
        let patched = parse(&src).unwrap();
        check(&patched).unwrap();
        assert!(patched.hole().is_none());
    }

    #[test]
    fn select_patch_returns_none_on_empty_order() {
        let candidate = CandidateInput {
            model: Model::new(),
            score: 3,
            flipped_index: 0,
        };
        // An empty ranked order (every entry died between ranking and
        // selection) must read as pool exhaustion, not a panic.
        assert_eq!(select_patch(&[], &[], &candidate), None);
    }

    #[test]
    fn coverage_tracking_only_changes_coverage_and_counting_queries() {
        let problem = problem();
        let off = repair(&problem, &RepairConfig::quick());
        let on = repair(
            &problem,
            &RepairConfig {
                track_coverage: true,
                ..RepairConfig::quick()
            },
        );
        // Coverage is computed off the critical exploration loop, so it must
        // not perturb the search: every report field matches the untracked
        // run except the coverage figure itself and the extra counting
        // queries (exactly one per explored path) — plus wall clock.
        assert_eq!(on.p_init, off.p_init);
        assert_eq!(on.p_final, off.p_final);
        assert_eq!(on.abstract_final, off.abstract_final);
        assert_eq!(on.paths_explored, off.paths_explored);
        assert_eq!(on.paths_skipped, off.paths_skipped);
        assert_eq!(on.iterations, off.iterations);
        assert_eq!(on.inputs_generated, off.inputs_generated);
        assert_eq!(on.history, off.history);
        assert_eq!(on.dev_rank, off.dev_rank);
        assert_eq!(
            on.ranked.iter().map(|r| &r.display).collect::<Vec<_>>(),
            off.ranked.iter().map(|r| &r.display).collect::<Vec<_>>()
        );
        assert!(on.input_coverage.is_some());
        assert_eq!(off.input_coverage, None);
        assert_eq!(
            on.solver_queries,
            off.solver_queries + on.paths_explored as u64,
            "coverage must cost exactly one counting query per explored path"
        );
    }

    #[test]
    fn report_ratio_handles_zero_init() {
        let r = RepairReport {
            subject: "s".into(),
            p_init: 0,
            p_final: 0,
            abstract_init: 0,
            abstract_final: 0,
            paths_explored: 0,
            paths_skipped: 0,
            iterations: 0,
            inputs_generated: 0,
            patch_loc_hit_ratio: 0.0,
            bug_loc_hit_ratio: 0.0,
            ranked: Vec::new(),
            dev_rank: None,
            history: Vec::new(),
            top_patched_source: None,
            input_coverage: None,
            wall_millis: 0,
            solver_queries: 0,
        };
        assert_eq!(r.reduction_ratio(), 0.0);
    }
}
