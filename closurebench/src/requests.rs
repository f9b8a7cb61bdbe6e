//! The served workload's request generator.
//!
//! The mix is stratified so every seed asks for about the same amount of
//! work: each unit gets the same number of requests at each scale, and
//! exactly a third of the requests at every (unit, scale) repeat an
//! earlier key. The seed decides which seeds the keys carry, which keys
//! repeat, the priority classes and the arrival order.

use ascdg_stimgen::mix_seed;

/// Units the mix covers, with the two paper-profile scales each uses.
/// The scales are small so a served request takes well under a second.
pub const UNITS: [(&str, [f64; 2]); 3] = [
    ("io", [0.02, 0.04]),
    ("l3", [0.01, 0.02]),
    ("ifu", [0.05, 0.1]),
];

/// Distinct keys per unit and scale.
const UNIQUE_PER_SCALE: usize = 6;

/// Repeats per unit and scale: half the distinct keys, so a third of all
/// requests repeat a key.
const REPEATS_PER_SCALE: usize = UNIQUE_PER_SCALE / 2;

/// Priority classes and their dispatch weights.
pub const CLASSES: [(&str, u32); 2] = [("gold", 3), ("bronze", 1)];

/// One closure request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Unit alias (`io`, `l3`, `ifu`).
    pub unit: &'static str,
    /// Paper-profile scale.
    pub scale: f64,
    /// Request seed.
    pub seed: u64,
    /// Priority class.
    pub class: &'static str,
    /// Dispatch weight of the class.
    pub weight: u32,
    /// Whether an earlier request of the mix has the same key.
    pub repeat: bool,
}

impl Req {
    /// The memoization key: what the outcome depends on.
    pub fn key(&self) -> (&'static str, u64, u64) {
        (self.unit, self.scale.to_bits(), self.seed)
    }
}

/// A SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix_seed(self.0, 0x5eed)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The request mix for a workload seed: `3 units x 2 scales x (6 keys +
/// 3 repeats)` = 54 requests, each repeat placed after the request it
/// repeats.
pub fn generate(seed: u64) -> Vec<Req> {
    let mut rng = Rng(mix_seed(seed, 0x5e7e));
    let class = |rng: &mut Rng| CLASSES[rng.below(CLASSES.len())];
    let mut order: Vec<Req> = Vec::new();
    let mut repeats: Vec<Req> = Vec::new();
    for (unit, scales) in UNITS {
        for scale in scales {
            let mut seeds: Vec<u64> = Vec::new();
            for _ in 0..UNIQUE_PER_SCALE {
                // 20-bit seeds rarely collide; a collision is redrawn so
                // the repeat count stays exact.
                let seed = loop {
                    let s = rng.next() >> 44;
                    if !seeds.contains(&s) {
                        break s;
                    }
                };
                seeds.push(seed);
                let (class, weight) = class(&mut rng);
                order.push(Req {
                    unit,
                    scale,
                    seed,
                    class,
                    weight,
                    repeat: false,
                });
            }
            for _ in 0..REPEATS_PER_SCALE {
                let seed = seeds[rng.below(seeds.len())];
                let (class, weight) = class(&mut rng);
                repeats.push(Req {
                    unit,
                    scale,
                    seed,
                    class,
                    weight,
                    repeat: true,
                });
            }
        }
    }
    // Fisher-Yates over the distinct keys, then each repeat goes to a
    // random slot after its original.
    for i in (1..order.len()).rev() {
        let j = rng.below(i + 1);
        order.swap(i, j);
    }
    for r in repeats {
        let first = order
            .iter()
            .position(|q| q.key() == r.key())
            .expect("a repeat names an earlier key");
        let at = first + 1 + rng.below(order.len() - first);
        order.insert(at, r);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        assert_eq!(generate(7), generate(7));
        assert_eq!(generate(12345), generate(12345));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn every_seed_gets_the_same_shape_of_work() {
        for seed in 0..50 {
            let mix = generate(seed);
            assert_eq!(mix.len(), 54);
            for (unit, scales) in UNITS {
                for scale in scales {
                    let count = |repeat: bool| {
                        mix.iter()
                            .filter(|r| r.unit == unit && r.scale == scale && r.repeat == repeat)
                            .count()
                    };
                    assert_eq!(count(false), UNIQUE_PER_SCALE, "seed {seed} {unit} {scale}");
                    assert_eq!(count(true), REPEATS_PER_SCALE, "seed {seed} {unit} {scale}");
                }
            }
        }
    }

    #[test]
    fn a_third_repeat_an_earlier_key() {
        for seed in 0..50 {
            let mix = generate(seed);
            let mut seen = HashSet::new();
            let mut repeats = 0;
            for r in &mix {
                let fresh = seen.insert(r.key());
                assert_eq!(fresh, !r.repeat, "seed {seed}: {r:?}");
                repeats += usize::from(!fresh);
            }
            assert_eq!(3 * repeats, mix.len());
        }
    }

    #[test]
    fn both_classes_are_drawn() {
        let mix = generate(3);
        for (class, weight) in CLASSES {
            assert!(mix.iter().any(|r| r.class == class && r.weight == weight));
        }
    }
}
