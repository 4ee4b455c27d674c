//! Regenerates **Figure 1** of the paper: the illustrative simultaneous
//! exploration of input space and patch space for CVE-2016-3623
//! (Listing 1), reproducing the exploration steps I–V with the paper's
//! three patch templates, their parameter-constraint refinements, and the
//! exact concrete-patch counts (69 → 46 → 12 → 1, with partition P4
//! skipped by path reduction).

use cpr_bench::{budget, emit, TextTable};
use cpr_core::{refine_patch, RepairProblem, Session};
use cpr_smt::{Interval, ParamBox, Region, SatResult, TermId};
use cpr_subjects::extractfix;
use cpr_synth::AbstractPatch;

struct FigPatch {
    label: &'static str,
    patch: AbstractPatch,
    alive: bool,
}

fn main() {
    // The running example subject (paper Listing 1).
    let subject = extractfix::subjects()
        .into_iter()
        .find(|s| s.bug_id == "CVE-2016-3623")
        .expect("subject present");
    let problem: RepairProblem = subject.problem();
    let config = budget();
    let mut sess = Session::new(&problem, &config);

    // Variables of the example: x = horizSubSampling, y = vertSubSampling.
    let x = sess.pool.named_var("x", cpr_smt::Sort::Int);
    let y = sess.pool.named_var("y", cpr_smt::Sort::Int);
    let a_var = sess.pool.find_var("a").expect("param a");
    let b_var = sess.pool.find_var("b").expect("param b");
    let a = sess.pool.var_term(a_var);
    let b = sess.pool.var_term(b_var);

    // The paper's three templates with their initial (already
    // test-passing) parameter constraints.
    let t1 = sess.pool.ge(x, a); // x >= a, a ∈ [-10, 7]
    let t2 = sess.pool.lt(y, b); // y < b,  b ∈ [1, 10]
    let eq_x = sess.pool.eq(x, a);
    let eq_y = sess.pool.eq(y, b);
    let t3 = sess.pool.or(eq_x, eq_y); // x == a || y == b
    let mut patches = vec![
        FigPatch {
            label: "x >= a",
            patch: AbstractPatch::new(
                1,
                t1,
                vec![a_var],
                Region::from_boxes(vec![a_var], vec![ParamBox::new(vec![Interval::of(-10, 7)])]),
            ),
            alive: true,
        },
        FigPatch {
            label: "y < b",
            patch: AbstractPatch::new(
                2,
                t2,
                vec![b_var],
                Region::from_boxes(vec![b_var], vec![ParamBox::new(vec![Interval::of(1, 10)])]),
            ),
            alive: true,
        },
        FigPatch {
            label: "x == a || y == b",
            patch: AbstractPatch::new(
                3,
                t3,
                vec![a_var, b_var],
                Region::from_boxes(
                    vec![a_var, b_var],
                    vec![
                        // a = 7 ∧ b ∈ [-10, 10]
                        ParamBox::new(vec![Interval::point(7), Interval::of(-10, 10)]),
                        // b = 0 ∧ a ∈ [-10, 10]
                        ParamBox::new(vec![Interval::of(-10, 10), Interval::point(0)]),
                    ],
                ),
            ),
            alive: true,
        },
    ];

    // σ: x * y ≠ 0 (no divide-by-zero at the bug location).
    let xy = sess.pool.mul(x, y);
    let zero = sess.pool.int(0);
    let sigma = sess.pool.ne(xy, zero);

    // Partition constraints of the figure (over the inputs only; each
    // patch's ψ is conjoined per patch, oriented "into the buggy branch").
    let three = sess.pool.int(3);
    let five = sess.pool.int(5);
    let x_gt3 = sess.pool.gt(x, three);
    let x_le3 = sess.pool.le(x, three);
    let y_gt5 = sess.pool.gt(y, five);
    let y_le5 = sess.pool.le(y, five);
    let partitions: Vec<(&str, Vec<TermId>)> = vec![
        ("II  (P1: x > 3 ∧ y ≤ 5 ∧ ¬C)", vec![x_gt3, y_le5]),
        ("III (P2: x ≤ 3 ∧ y > 5 ∧ ¬C)", vec![x_le3, y_gt5]),
        ("IV  (P3: x ≤ 3 ∧ y ≤ 5 ∧ ¬C)", vec![x_le3, y_le5]),
    ];

    let mut out = String::new();
    let snapshot = |step: &str, sess: &Session, patches: &[FigPatch], out: &mut String| {
        let mut t = TextTable::new([
            "ID",
            "Patch Template",
            "Parameter Constraint",
            "# Conc. Patches",
        ]);
        let mut total: u128 = 0;
        for p in patches.iter().filter(|p| p.alive) {
            total += p.patch.concrete_count();
            t.row([
                p.patch.id.to_string(),
                p.label.to_owned(),
                p.patch.constraint.display(&sess.pool),
                p.patch.concrete_count().to_string(),
            ]);
        }
        out.push_str(&format!("Step {step} — patch space total: {total}\n"));
        out.push_str(&t.render());
        out.push('\n');
    };

    snapshot("I   (initial test x=7, y=0)", &sess, &patches, &mut out);

    for (step, partition) in &partitions {
        for p in patches.iter_mut() {
            if !p.alive {
                continue;
            }
            // φ complemented with the patch oriented into the buggy branch:
            // ¬ψ_ρ (the guard did not fire).
            let not_psi = sess.pool.not(p.patch.theta);
            let mut phi = partition.clone();
            phi.push(not_psi);
            let refined =
                refine_patch(&mut sess, &phi, &p.patch.constraint, sigma, &mut 0, &config);
            if refined.is_empty() {
                p.alive = false;
            }
            p.patch = p.patch.with_constraint(refined);
        }
        snapshot(step, &sess, &patches, &mut out);
    }

    // Step V: P4 (x > 3 ∧ y > 5 ∧ C) is satisfiable as a path constraint,
    // but no remaining patch can exercise it — path reduction skips it.
    let mut skipped = true;
    for p in patches.iter().filter(|p| p.alive) {
        let t_term = p.patch.constraint_term(&mut sess.pool);
        let q = vec![x_gt3, y_gt5, p.patch.theta, t_term];
        if let SatResult::Sat(_) = sess.check(&q) {
            skipped = false;
        }
    }
    out.push_str(&format!(
        "Step V   (P4: x > 3 ∧ y > 5 ∧ C): {}\n",
        if skipped {
            "no patch in the pool can exercise this path — SKIPPED (path reduction)"
        } else {
            "a patch can exercise this path — explored"
        }
    ));

    emit(
        "figure1",
        "Figure 1: Illustrative concolic exploration for CVE-2016-3623 — \
         simultaneous reduction of input space and patch space",
        &out,
    );
}
