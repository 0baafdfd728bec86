//! The second 3MK example (§4.2): a miniature CESM — four climate
//! components behind a central flux coupler, plus the node-layout cost
//! exploration the paper says CESM users must do by hand.
//!
//! ```text
//! cargo run --release -p jc_bench --bin fig8_cesm_layout
//! ```

use jc_cesm::models::{ActiveComponent, DataComponent};
use jc_cesm::{Component, ComponentKind, Coupler, GridField, Layout};

fn main() {
    // Fully active configuration.
    let comps: Vec<Box<dyn Component>> = vec![
        Box::new(ActiveComponent::new(ComponentKind::Atmosphere, 16, 16, 10.0)),
        Box::new(ActiveComponent::new(ComponentKind::Ocean, 16, 16, 20.0)),
        Box::new(ActiveComponent::new(ComponentKind::Land, 16, 16, 5.0)),
        Box::new(ActiveComponent::new(ComponentKind::SeaIce, 16, 16, 1.0)),
    ];
    let mut cpl = Coupler::new(comps, 16, 16);
    println!("fully-active CESM run:");
    for epoch in 1..=5 {
        let s = cpl.run(20);
        println!(
            "  step {:>3}: global mean flux {:.4}, routed {:.1}",
            s.steps, s.global_mean, s.routed_flux
        );
        let _ = epoch;
    }

    // Data-ocean configuration (replay instead of compute).
    let series: Vec<GridField> =
        (0..4).map(|i| GridField::constant(16, 16, 0.2 + 0.05 * i as f64)).collect();
    let comps: Vec<Box<dyn Component>> = vec![
        Box::new(ActiveComponent::new(ComponentKind::Atmosphere, 16, 16, 10.0)),
        Box::new(DataComponent::new(ComponentKind::Ocean, series)),
        Box::new(ActiveComponent::new(ComponentKind::Land, 16, 16, 5.0)),
        Box::new(ActiveComponent::new(ComponentKind::SeaIce, 16, 16, 1.0)),
    ];
    let mut cpl = Coupler::new(comps, 16, 16);
    let s = cpl.run(50);
    println!("\ndata-ocean variant after {} steps: global mean {:.4}", s.steps, s.global_mean);

    // Layout exploration: partitioned vs shared over a node range.
    println!("\nnode-layout cost (one coupling interval, relative units):");
    println!(
        "  {:>6} {:>14} {:>14} {:>12} {:>12}",
        "nodes", "part makespan", "shared makespan", "part util", "shared util"
    );
    for nodes in [5u32, 8, 12, 16, 32] {
        let p = Layout::partitioned(nodes).cost();
        let sh = Layout::shared(nodes).cost();
        println!(
            "  {:>6} {:>14.3} {:>14.3} {:>11.0}% {:>11.0}%",
            nodes,
            p.makespan,
            sh.makespan,
            p.utilization * 100.0,
            sh.utilization * 100.0
        );
    }
    println!(
        "\n(the sweep is the experimenting the paper wants to automate for a jungle-aware CESM)"
    );
}
