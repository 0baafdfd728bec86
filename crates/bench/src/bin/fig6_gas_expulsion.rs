//! Regenerates Fig 6: the embedded-cluster gas-expulsion time series.

use jc_amuse::channel::LocalChannel;
use jc_amuse::cluster::{bound_gas_fraction, half_mass_radius, EmbeddedCluster};
use jc_amuse::{Bridge, Role};

fn main() {
    let cluster = EmbeddedCluster::build(48, 192, 0.5, 39);
    let (g, h, c, s) = cluster.local_workers(false);
    let mut cfg = cluster.bridge_config();
    cfg.substeps = 8;
    cfg.stellar_interval = 1;
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(g)),
        Box::new(LocalChannel::new(h)),
        Box::new(LocalChannel::new(c)),
        Some(Box::new(LocalChannel::new(s))),
        cfg,
    );
    // wall time per role: each request's submit plus its wait for the
    // answer (`IterationReport::wall`)
    let roles = [Role::Gravity, Role::Hydro, Role::Coupling, Role::Stellar];
    println!(
        "{:>6} {:>9} {:>11} {:>10} {:>10} {:>5} {:>8} {:>8} {:>8} {:>8}",
        "iter",
        "t [Myr]",
        "bound gas",
        "r_h stars",
        "r_h gas",
        "SNe",
        "grav ms",
        "hydro ms",
        "coup ms",
        "stel ms"
    );
    let mut sne = 0;
    for i in 0..24 {
        let rep = bridge.iteration();
        sne += rep.supernovae;
        let (stars, gas) = bridge.snapshots();
        let stage = match i {
            0 => "  <- (a) initial: stars embedded in gas",
            8 => "  <- (b) gas expanding",
            16 => "  <- (c) thin shell / supernovae",
            23 => "  <- (d) gas removed, cluster expanded",
            _ => "",
        };
        let ms = roles.map(|r| rep.wall(r).as_secs_f64() * 1e3);
        println!(
            "{:>6} {:>9.2} {:>10.1}% {:>10.3} {:>10.3} {:>5} {:>8.3} {:>8.3} {:>8.3} {:>8.3}{}",
            i + 1,
            rep.time * cluster.time_unit_myr,
            bound_gas_fraction(&stars, &gas) * 100.0,
            half_mass_radius(&stars),
            half_mass_radius(&gas),
            sne,
            ms[0],
            ms[1],
            ms[2],
            ms[3],
            stage
        );
    }
}
