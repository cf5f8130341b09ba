//! OLAP-style roll-up / drill-down served from the coefficient domain.
//!
//! The paper motivates range-count queries with OLAP navigation (§II-A):
//! nominal predicates select either a hierarchy node's whole subtree
//! (roll-up) or individual leaves (drill-down). This example publishes a
//! 1-D Occupation-like table once **in the coefficient domain** and then
//! navigates the hierarchy through the unified serving engine: the whole
//! dashboard (root, every group, every member of the largest group) is
//! compiled into one `QueryPlan` on the engine's release core
//! (`core().plan`) and answered as sparse dots against the noisy
//! coefficients — the matrix is never reconstructed — and a second
//! "refresh" of the same dashboard runs through the engine's online
//! support cache to show the repeat-traffic amortization.
//!
//! Run with: `cargo run --release --example olap_drilldown`

use privelet_repro::core::bounds::eq6_nominal_bound;
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::data::distributions::zipf_weights;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::eval::ExactEvaluate;
use privelet_repro::hierarchy::builder::three_level;
use privelet_repro::matrix::NdMatrix;
use privelet_repro::query::{ConcurrentEngine, Predicate, RangeQuery};

fn main() {
    // An Occupation attribute: 60 occupations in 6 groups (height-3
    // hierarchy, like Table III's Occupation at small scale).
    let hierarchy = three_level(60, 6).expect("hierarchy");
    let schema = Schema::new(vec![Attribute::nominal("Occupation", hierarchy.clone())]).unwrap();

    // Zipf-distributed workforce of 100 000 people.
    let weights = zipf_weights(60, 1.0);
    let total: f64 = weights.iter().sum();
    let counts: Vec<f64> = weights
        .iter()
        .map(|w| (w / total * 100_000.0).round())
        .collect();
    let n: f64 = counts.iter().sum();
    let fm =
        FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&[60], counts).unwrap()).unwrap();

    let epsilon = 0.5;
    let release = publish_coefficients(&fm, &PriveletConfig::pure(epsilon, 11)).expect("publish");
    let answerer = ConcurrentEngine::from_output(&release).expect("engine");
    println!(
        "published {n} tuples over 60 occupations at ε = {epsilon} \
         ({} noisy coefficients, matrix never rebuilt; variance bound {:.0} = Eq. 6's {:.0})",
        release.coefficient_count(),
        release.meta.variance_bound,
        eq6_nominal_bound(hierarchy.height(), epsilon),
    );

    // The whole dashboard as one batch: root roll-up, every group total,
    // every member of the largest group, and the group total again (the
    // consistency check re-asks it — a repeat the planner dedups).
    let node_query = |node: usize| RangeQuery::new(vec![Predicate::Node { node }]);
    let groups = hierarchy.nodes_at_level(2);
    let largest = groups[0];
    let (leaf_lo, leaf_hi) = hierarchy.leaf_range(largest);
    let mut dashboard = vec![node_query(hierarchy.root())];
    dashboard.extend(groups.iter().map(|&g| node_query(g)));
    dashboard.extend((leaf_lo..=leaf_hi).map(|p| node_query(hierarchy.leaf_node(p))));
    dashboard.push(node_query(largest));

    let core = answerer.core();
    let plan = core.plan(&dashboard).expect("plan compiles");
    let noisy = core.execute_plan(&plan).expect("plan executes");
    println!(
        "\ncompiled the {}-query dashboard into one plan: {} supports \
         requested, {} derived (dedup ratio {:.0}%)",
        plan.len(),
        plan.support_requests(),
        plan.distinct_supports(),
        100.0 * plan.dedup_ratio()
    );

    let exact = |node: usize| node_query(node).evaluate(&fm).unwrap();

    // Roll-up: the root = total workforce.
    println!(
        "\nroll-up to ALL: exact {:>8.0}  noisy {:>10.1}",
        exact(hierarchy.root()),
        noisy[0]
    );

    // Level 2: every occupation group.
    println!("\ngroup totals (drill-down level 2):");
    println!(
        "{:>8} {:>10} {:>12} {:>10}",
        "group", "exact", "noisy", "rel.err"
    );
    for (i, &g) in groups.iter().enumerate() {
        let want = exact(g);
        let got = noisy[1 + i];
        println!(
            "{:>8} {want:>10.0} {got:>12.1} {:>9.2}%",
            hierarchy.label(g),
            100.0 * (got - want).abs() / want.max(1.0)
        );
    }

    // Drill into the largest group's members.
    println!(
        "\ndrill-down into group {} (members {leaf_lo}..{leaf_hi}):",
        hierarchy.label(largest),
    );
    println!("{:>8} {:>10} {:>12}", "leaf", "exact", "noisy");
    let member_base = 1 + groups.len();
    for (i, pos) in (leaf_lo..=leaf_hi).enumerate() {
        let leaf = hierarchy.leaf_node(pos);
        println!(
            "{:>8} {:>10.0} {:>12.1}",
            hierarchy.label(leaf),
            exact(leaf),
            noisy[member_base + i]
        );
    }

    // Consistency remark: after mean subtraction the noisy group total and
    // the sum of its noisy members agree (a property of the nominal
    // transform's reconstruction).
    let group_noisy = noisy[noisy.len() - 1];
    let member_sum: f64 = noisy[member_base..noisy.len() - 1].iter().sum();
    println!(
        "\ngroup total {group_noisy:.3} vs sum of members {member_sum:.3} \
         (difference {:.2e} — the release is internally consistent)",
        (group_noisy - member_sum).abs()
    );

    // Dashboard refreshes, one query at a time (the online path; the
    // batch plan keeps its supports in its own arena). The first refresh
    // fills the support cache; the second is served from it, except
    // where two of the dashboard's supports share a cache slot and
    // displace each other (the cache is direct-mapped).
    let refreshed: Vec<f64> = dashboard
        .iter()
        .map(|q| answerer.answer(q).unwrap())
        .collect();
    // Online vs the plan: the same supports through the same kernel,
    // so bitwise.
    for (r, n) in refreshed.iter().zip(&noisy) {
        assert_eq!(
            r.to_bits(),
            n.to_bits(),
            "refresh must reproduce the batch: {r} vs {n}"
        );
    }
    let first = answerer.cache_stats();
    let again: Vec<f64> = dashboard
        .iter()
        .map(|q| answerer.answer(q).unwrap())
        .collect();
    // Online vs online (cached): bit-identical.
    assert_eq!(again, refreshed);
    let second = answerer.cache_stats();
    println!(
        "\nonline refreshes: first warmed the cache ({} misses), the \
         second hit it on {} of {} lookups (overall hit rate {:.0}%)",
        first.misses,
        second.hits - first.hits,
        (second.hits + second.misses) - (first.hits + first.misses),
        100.0 * second.hit_rate()
    );
}
