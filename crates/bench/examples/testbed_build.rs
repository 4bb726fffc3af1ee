//! Times the catalog load behind `Testbed::build` phase by phase:
//! library generation, offline replication into the stores and the
//! metadata engine, and dropping the built deployment.
//!
//! Each size is the `admit_lrb100` deployment shape,
//! `TestbedConfig::scale_short(n, 100·n)`: `n` servers, `100·n` videos of
//! 30–120 s, three copies per tier. Prints the median
//! and the range of `--reps` builds per size.
//!
//! ```text
//! cargo run --release -p quasaq-bench --example testbed_build -- --servers 30,100,300,1000 --reps 15
//! ```

use quasaq_media::Library;
use quasaq_sim::ServerId;
use quasaq_store::{MetadataEngine, ObjectStore, QosSampler, ReplicationPlanner};
use quasaq_workload::TestbedConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// `median [min–max]` of a sample, in milliseconds.
fn summary(ms: &mut [f64]) -> String {
    ms.sort_by(f64::total_cmp);
    format!("{:8.1} [{:.1}–{:.1}]", ms[ms.len() / 2], ms[0], ms[ms.len() - 1])
}

fn main() {
    let mut servers = vec![30, 100, 300, 1_000];
    let mut reps = 15;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match flag.as_str() {
            "--servers" => {
                servers = value.split(',').map(|s| s.parse().expect("server count")).collect()
            }
            "--reps" => reps = value.parse().expect("repetition count"),
            _ => {
                eprintln!("usage: testbed_build [--servers N,N,..] [--reps R]");
                std::process::exit(2);
            }
        }
    }
    println!("servers  videos   objects  generate ms        replicate ms       drop ms");
    for n in servers {
        let config = TestbedConfig::scale_short(n, 100 * n as usize);
        let (mut generate, mut replicate, mut drop) = (Vec::new(), Vec::new(), Vec::new());
        let mut objects = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let library = Library::generate(config.seed, &config.library);
            generate.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            let mut stores: BTreeMap<ServerId, ObjectStore> =
                ServerId::first_n(n).map(|s| (s, ObjectStore::new(s, 1 << 42))).collect();
            let mut engine = MetadataEngine::new(ServerId::first_n(n));
            ReplicationPlanner::new(QosSampler { cost: config.cost }, config.placement)
                .replicate(&library, &mut stores, &mut engine)
                .expect("the catalog fits");
            replicate.push(t.elapsed().as_secs_f64() * 1e3);
            objects = engine.object_count();

            let t = Instant::now();
            std::mem::drop((library, stores, engine));
            drop.push(t.elapsed().as_secs_f64() * 1e3);
        }
        println!(
            "{n:7} {:7} {objects:9} {} {} {}",
            config.library.num_videos,
            summary(&mut generate),
            summary(&mut replicate),
            summary(&mut drop)
        );
    }
}
