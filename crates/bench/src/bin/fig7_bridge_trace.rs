//! Regenerates Fig 7: the calling sequence of the combined solver.

use jc_amuse::channel::LocalChannel;
use jc_amuse::cluster::EmbeddedCluster;
use jc_amuse::Bridge;

fn main() {
    let cluster = EmbeddedCluster::build(24, 96, 0.5, 3);
    let (g, h, c, s) = cluster.local_workers(false);
    let mut cfg = cluster.bridge_config();
    cfg.substeps = 2;
    cfg.stellar_interval = 1;
    cfg.trace = true;
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(g)),
        Box::new(LocalChannel::new(h)),
        Box::new(LocalChannel::new(c)),
        Some(Box::new(LocalChannel::new(s))),
        cfg,
    );
    let rep = bridge.iteration();
    println!("one iteration of the combined gravitational/hydro/stellar solver:\n");
    for (i, line) in rep.trace.iter().enumerate() {
        println!("  {:>2}. {line}", i + 1);
    }
    println!("\n(circles in Fig 7 = model calls; the p-kicks run through the");
    println!(" coupling model; gas and gravity evolve in parallel; the stellar");
    println!(" exchange happens only every n-th step; a \"field reused\" p-kick");
    println!(" applies the previous phase's field again — nothing moved in between)");
    println!(
        "\ncoupling fields evaluated: {}, p-kick phases re-applied: {}",
        rep.coupling_fields, rep.kicks_reapplied
    );
    let (gs, hs, cs, ss) = bridge.channel_stats();
    println!(
        "\ncalls: gravity {}, hydro {}, coupling {}, stellar {}",
        gs.calls,
        hs.calls,
        cs.calls,
        ss.map(|x| x.calls).unwrap_or(0)
    );
}
