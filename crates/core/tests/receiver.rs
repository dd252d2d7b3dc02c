//! The streaming link receiver: however the audio is cut into pushes it
//! hands over the frames, times and statistics of one whole-buffer
//! `link::demodulate`, and what it holds does not grow with the stream.

use proptest::prelude::*;
use sonic_core::frame::Frame;
use sonic_core::link::{self, LinkStats, Receiver, FRAMES_PER_BURST};
use sonic_modem::{demodulate_frames, Profile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Heap bytes this thread holds, the most it has held, and how many
    /// times it has asked the allocator for memory.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// `System`, plus per-thread accounts of live bytes and allocation calls, so
/// a test can say what one receiver holds whatever other test threads do.
struct Counting;

fn note(grown: isize, calls: usize) {
    // A thread that is tearing down has no counters left; nothing measures it.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and, being const-initialised `Cell`s, never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: (contract) the caller passes a layout of non-zero size.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        // SAFETY: `layout` is the caller's, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0);
        // SAFETY: every block this allocator hands out came from `System`
        // with the same layout, so `System` may free it.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`, and
    // `new_size` is non-zero and does not overflow when rounded up.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 1);
        // SAFETY: `ptr` and `layout` describe a live `System` block (see
        // `dealloc`); `new_size` is the caller's, forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn frames(n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| Frame::Strip {
            page_id: 7,
            column: (i % 40) as u16,
            seq: (i / 40) as u16,
            last: false,
            payload: vec![(i % 251) as u8; 86],
        })
        .collect()
}

/// Two full bursts and a short one; the middle burst's payload symbols are
/// blanked for a stretch, so it is detected and fails its FEC.
fn damaged_page() -> &'static Vec<f32> {
    static AUDIO: OnceLock<Vec<f32>> = OnceLock::new();
    AUDIO.get_or_init(|| {
        let p = Profile::sonic_10k();
        let mut audio = link::modulate(&p, &frames(2 * FRAMES_PER_BURST + 9));
        let bursts = demodulate_frames(&p, &audio);
        assert_eq!(bursts.len(), 3);
        let middle = (bursts[1].start_sample + bursts[2].start_sample) / 2;
        audio[middle - 30_000..middle + 30_000].fill(0.0);
        audio
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Receiver` pushed any list of cuts ≡ `link::demodulate`: frames,
    /// `LinkStats`, and each frame stamped with its burst's air time.
    #[test]
    fn receiver_pushed_in_pieces_is_one_demodulate(
        sizes in proptest::collection::vec(1usize..60_000, 0..16),
        tail in 1usize..8_192,
    ) {
        let p = Profile::sonic_10k();
        let audio = damaged_page();
        let (want, want_stats) = link::demodulate(&p, audio);
        prop_assert_eq!(
            &want_stats,
            &LinkStats {
                bursts_detected: 3,
                bursts_failed: 1,
                frames_ok: FRAMES_PER_BURST + 9,
                frames_bad_crc: 0,
            }
        );
        let starts: Vec<f64> = demodulate_frames(&p, audio)
            .iter()
            .filter(|b| b.payload.is_ok())
            .map(|b| b.start_sample as f64 / p.sample_rate)
            .collect();

        let mut receiver = Receiver::new(&p);
        let mut got = Vec::new();
        let mut rest = &audio[..];
        // The random cuts first, then `tail`-sized pushes to the end.
        for size in sizes.into_iter().chain(std::iter::repeat(tail)) {
            let (head, more) = rest.split_at(size.min(rest.len()));
            receiver.push(head, |frame, at_s| got.push((frame, at_s)));
            rest = more;
            if rest.is_empty() {
                break;
            }
        }
        receiver.flush(|frame, at_s| got.push((frame, at_s)));

        prop_assert_eq!(receiver.stats(), &want_stats);
        prop_assert_eq!(got.len(), want.len());
        for (i, ((frame, at_s), want)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(frame, want);
            prop_assert_eq!(*at_s, starts[i / FRAMES_PER_BURST], "frame {}", i);
        }
    }
}

/// Capture-callback size the bounded-state run pushes.
const CHUNK: usize = 4_096;
/// One burst every 30 s.
const PERIOD: usize = 30 * 44_100;
/// Each period: 10 s of silence, 10 s of noise, the burst, silence.
const NOISE_FROM: usize = 10 * 44_100;
const BURST_AT: usize = 20 * 44_100;

/// Pushes `periods` × 30 s through a new receiver on a new thread (so that
/// what the chain keeps in thread-locals counts too). Returns the most heap
/// the thread held from the end of the first burst on.
fn run_station(periods: usize, burst: &[f32]) -> isize {
    std::thread::scope(|scope| {
        let station = scope.spawn(|| {
            let p = Profile::sonic_10k();
            let mut chunk = vec![0.0f32; CHUNK];
            let mut noise = 0x2545_F491u32;
            let before = LIVE.get();
            let mut receiver = Receiver::new(&p);
            let mut frames_ok = 0;
            for start in (0..periods * PERIOD).step_by(CHUNK) {
                for (i, s) in chunk.iter_mut().enumerate() {
                    let at = (start + i) % PERIOD;
                    *s = if at < NOISE_FROM {
                        0.0
                    } else if at < BURST_AT {
                        noise ^= noise << 13;
                        noise ^= noise >> 17;
                        noise ^= noise << 5;
                        0.1 * ((noise >> 8) as f32 / (1u32 << 24) as f32 - 0.5)
                    } else {
                        burst.get(at - BURST_AT).copied().unwrap_or(0.0)
                    };
                }
                // Searching: the last burst ended three pushes ago or more,
                // and the next one's first sample is not in this push.
                let at = start % PERIOD;
                let searching = start > PERIOD
                    && (at + CHUNK <= BURST_AT || at >= BURST_AT + burst.len() + 3 * CHUNK);
                if start > PERIOD && start - CHUNK <= PERIOD {
                    // The first burst is behind: measure from here.
                    PEAK.set(LIVE.get());
                }
                let calls = CALLS.get();
                receiver.push(&chunk, |_, _| frames_ok += 1);
                if searching {
                    assert_eq!(CALLS.get(), calls, "allocated while searching, at sample {start}");
                }
            }
            receiver.flush(|_, _| frames_ok += 1);
            assert_eq!(frames_ok, periods * FRAMES_PER_BURST);
            assert_eq!(receiver.stats().bursts_detected, periods);
            PEAK.get() - before
        });
        station.join().expect("station thread")
    })
}

/// What the receiver holds is set by the largest burst, not by how long the
/// station has been on: 2 minutes and 20 minutes of silence, noise and a
/// full-length burst every 30 s stay under the same few megabytes, and
/// between bursts a push allocates nothing.
#[test]
fn receiver_state_is_bounded_and_searching_does_not_allocate() {
    const BOUND: isize = 4 << 20;
    let burst = link::modulate(&Profile::sonic_10k(), &frames(FRAMES_PER_BURST));
    for periods in [4, 40] {
        let peak = run_station(periods, &burst);
        assert!(
            (1 << 20..=BOUND).contains(&peak),
            "{} min peaked at {peak} B",
            periods / 2
        );
    }
}
