//! Input synthesis. Everything here is derived from the run's seed and
//! happens before any timed region; the program only ever sees the frames.

use hebs_imaging::{synthetic, GrayImage, SipiSuite};

use crate::stats::Rng;

pub const HD_WIDTH: u32 = 1920;
pub const HD_HEIGHT: u32 = 1080;

pub const STILLS_SIZE: u32 = 128;
pub const STILLS_BUDGETS: [f64; 2] = [0.05, 0.20];

/// The paper's experiment: the 19-image synthetic SIPI suite at 128².
pub fn stills() -> Vec<GrayImage> {
    SipiSuite::with_size(STILLS_SIZE)
        .iter()
        .map(|(_, image)| image.clone())
        .collect()
}

/// `(image index, budget)` of each of `requests` requests: rounds that
/// each visit every (image, budget) pair once, in a seeded order. Whatever
/// the seed, a run then serves an almost even mix of pairs, so its median
/// does not hop with the share each budget happened to get.
pub fn stills_schedule(seed: u64, images: usize, requests: usize) -> Vec<(usize, f64)> {
    let pairs: Vec<(usize, f64)> = (0..images)
        .flat_map(|image| STILLS_BUDGETS.map(|budget| (image, budget)))
        .collect();
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(requests + pairs.len());
    while order.len() < requests {
        let mut round = pairs.clone();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order.truncate(requests);
    order
}

/// A photo viewer's library: twelve distinct 1080p stills, two of each of
/// six scene kinds whose histograms differ (portrait, landscape,
/// still-life, texture, low-key, high-key).
pub fn gallery(seed: u64) -> Vec<GrayImage> {
    type Scene = fn(u32, u32, u64) -> GrayImage;
    let kinds: [Scene; 6] = [
        synthetic::portrait,
        synthetic::landscape,
        synthetic::still_life,
        synthetic::fine_texture,
        synthetic::low_key,
        synthetic::high_key,
    ];
    let mut rng = Rng::new(seed ^ 0x6A11);
    (0..12)
        .map(|i| kinds[i % kinds.len()](HD_WIDTH, HD_HEIGHT, rng.next_u64()))
        .collect()
}

/// One browsing session: the image the viewer opens on, then `steps`
/// navigation requests, each a next (60%), a back (25%) or a jump to a
/// random image (15%), so images are revisited within a session. The mix
/// is an assumed forward-biased browse, not a measured trace; how much of
/// a session it spends on first visits, which miss whatever the cache
/// does, is reported as `cache.first_visit_share`.
pub fn gallery_walk(seed: u64, session: u64, images: usize, steps: usize) -> (usize, Vec<usize>) {
    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ session);
    let first = rng.below(images);
    let mut at = first;
    let walk = (0..steps)
        .map(|_| {
            let roll = rng.unit();
            at = if roll < 0.60 {
                (at + 1) % images
            } else if roll < 0.85 {
                (at + images - 1) % images
            } else {
                rng.below(images)
            };
            at
        })
        .collect();
    (first, walk)
}
