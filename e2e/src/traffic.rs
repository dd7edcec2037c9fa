//! Seeded request traffic: which pool image each request carries, which
//! device sends it and when it is due. The same seed gives the same
//! requests; the program under test only ever sees the generated trace.

use crate::workload::DEVICES;
use mea_data::Dataset;
use mea_edgecloud::serve::ServeRequest;
use mea_edgecloud::traces::ArrivalModel;
use mea_tensor::Rng;

/// One chunk of traffic handed to `Fleet::serve`.
#[derive(Debug)]
pub struct Chunk {
    /// The trace, sorted by arrival time.
    pub requests: Vec<ServeRequest>,
    /// Pool index of each request's image, aligned with `requests`.
    pub instance_of: Vec<usize>,
}

/// Deals pool images pass after pass, each pass a fresh seeded shuffle of
/// the whole pool. Every image is served equally often (to within one),
/// so the exit mix, the uplink bytes and the accuracy of a run barely
/// depend on the seed while the order, devices and arrival times do.
#[derive(Debug)]
pub struct Traffic {
    rng: Rng,
    order: Vec<usize>,
    dealt: usize,
}

impl Traffic {
    /// Traffic over a pool of `pool_len` images.
    pub fn new(seed: u64, pool_len: usize) -> Traffic {
        assert!(pool_len > 0, "empty request pool");
        Traffic { rng: Rng::new(seed), order: (0..pool_len).collect(), dealt: pool_len }
    }

    fn next_instance(&mut self) -> usize {
        if self.dealt == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.order[self.dealt - 1]
    }

    fn chunk(&mut self, pool: &Dataset, arrivals: Vec<f64>) -> Chunk {
        let mut next_seq = [0usize; DEVICES];
        let mut instance_of = Vec::with_capacity(arrivals.len());
        let requests = arrivals
            .into_iter()
            .map(|arrival_s| {
                let instance = self.next_instance();
                let device = self.rng.below(DEVICES);
                let seq = next_seq[device];
                next_seq[device] += 1;
                instance_of.push(instance);
                ServeRequest {
                    device,
                    seq,
                    arrival_s,
                    image: pool.images.slice_axis0(instance, instance + 1),
                    truth: pool.labels[instance],
                }
            })
            .collect();
        Chunk { requests, instance_of }
    }

    /// A closed-loop chunk: `n` requests all due at 0, so admission is
    /// bounded only by the runtime's own queues.
    pub fn saturated(&mut self, pool: &Dataset, n: usize) -> Chunk {
        self.chunk(pool, vec![0.0; n])
    }

    /// An open-loop window: `n` Poisson arrivals at `rate_hz`.
    pub fn paced(&mut self, pool: &Dataset, n: usize, rate_hz: f64) -> Chunk {
        let arrivals = ArrivalModel::Poisson { rate_hz }.generate(n, &mut self.rng);
        self.chunk(pool, arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::Tensor;

    fn pool(n: usize) -> Dataset {
        let data: Vec<f32> = (0..n * 12).map(|v| v as f32).collect();
        Dataset::new(Tensor::from_vec(data, &[n, 3, 2, 2]).expect("shape"), (0..n).map(|i| i % 3).collect(), 3)
    }

    fn fingerprint(c: &Chunk) -> Vec<(usize, usize, u64, usize)> {
        c.requests.iter().zip(&c.instance_of).map(|(r, &i)| (r.device, r.seq, r.arrival_s.to_bits(), i)).collect()
    }

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let pool = pool(10);
        let draw = |seed| {
            let mut t = Traffic::new(seed, pool.len());
            (fingerprint(&t.saturated(&pool, 25)), fingerprint(&t.paced(&pool, 25, 100.0)))
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn every_pass_deals_the_whole_pool_once() {
        let pool = pool(10);
        let mut t = Traffic::new(1, pool.len());
        let c = t.saturated(&pool, 30);
        for pass in c.instance_of.chunks(10) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }
        // The deck carries over between chunks: 5 + 5 is one more pass.
        let mut tail = t.saturated(&pool, 5).instance_of;
        tail.extend(t.paced(&pool, 5, 50.0).instance_of);
        tail.sort_unstable();
        assert_eq!(tail, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn requests_carry_their_pool_image_and_per_device_sequence() {
        let pool = pool(6);
        let mut t = Traffic::new(9, pool.len());
        let c = t.paced(&pool, 40, 200.0);
        assert!(c.requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s), "sorted by arrival");
        let mut next = [0usize; DEVICES];
        for (r, &i) in c.requests.iter().zip(&c.instance_of) {
            assert_eq!(r.image, pool.images.slice_axis0(i, i + 1));
            assert_eq!(r.truth, pool.labels[i]);
            assert_eq!(r.seq, next[r.device]);
            next[r.device] += 1;
        }
        let sat = t.saturated(&pool, 9);
        assert!(sat.requests.iter().all(|r| r.arrival_s == 0.0));
    }
}
