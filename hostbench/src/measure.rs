//! Host-side measurement helpers: process CPU and memory from `/proc`,
//! the host-speed calibration kernel, order statistics, report digests
//! and JSON number formatting.

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`. Resolution is one clock tick (10 ms on Linux).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line: 11 and 12
    // after the pid, the command and the state.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)`, fixed at 100 on every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A `VmHWM:` / `VmRSS:` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"));
    kb as f64 / 1024.0
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`] (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Restarts the VmHWM peak from the current resident set, so each round's
/// peak is its own and not the largest of everything the process ran.
/// Free heap memory is first handed back to the kernel: the allocator
/// keeps what earlier rounds freed, and with it each round's peak grew on
/// the one before (`sharded_dense`: 415 MiB in the first round, 480 MiB
/// by the sixth, and 390–580 MiB across runs).
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            /// glibc: returns the free memory of every heap arena to the
            /// kernel; returns 1 if any was released.
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim only releases memory the allocator holds
        // free; no live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Current resident set (VmRSS), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// About the calibration kernel's pass time on the reference host, a
/// 2-core x86-64 Xeon VM, when its cores are not contended: calibrated
/// times are scaled to this speed.
pub const KERNEL_REFERENCE_S: f64 = 7.5e-3;

/// Entries the calibration kernel inserts per pass.
const KERNEL_ENTRIES: u64 = 60_000;

/// One pass of the calibration kernel: builds a hash map of 60,000 small
/// heap-allocated values and drops it — allocation and scattered writes,
/// in code the simulator never runs. Returns its time, s.
///
/// On a shared host the speed a process gets drifts, in episodes from
/// tens of milliseconds to many minutes, and what slows it is contention
/// for the memory system more than for the cores: between quiet and
/// loaded periods of the reference host, the workloads' median round times
/// ranged over 1.42–1.80× their lowest and this kernel's over 1.65–2.01×,
/// while an integer kernel (xorshift steps, no memory traffic) moved
/// 10–13 %. So this kernel is the yardstick, and each workload's times
/// are scaled by a power of it (README, Calibration).
pub fn kernel_pass_s() -> f64 {
    type Fixed = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let start = std::time::Instant::now();
    let mut map: std::collections::HashMap<u64, Vec<u8>, Fixed> = Default::default();
    for i in 0..std::hint::black_box(KERNEL_ENTRIES) {
        map.insert(i.wrapping_mul(0x9E37_79B9), vec![i as u8; 24]);
    }
    std::hint::black_box(&map);
    drop(map);
    start.elapsed().as_secs_f64()
}

/// Calibration kernel passes after a sample that took `sample_s` of host
/// time: at least one, and until they add up to half of it, so a long
/// sample is set against conditions over a comparable stretch. Returns
/// the mean pass time, s.
pub fn kernel_s(sample_s: f64) -> f64 {
    let (mut total, mut passes) = (0.0, 0u32);
    while passes == 0 || total < 0.5 * sample_s {
        total += kernel_pass_s();
        passes += 1;
    }
    total / passes as f64
}

/// Quantile by linear interpolation between the closest ranks, 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median, 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a over a rendered report: the digest two runs compare.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values have no JSON form; they print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (names and units here are plain ASCII; quotes,
/// backslashes and control characters are escaped anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readers_return_live_values() {
        let _g = crate::workloads::tests::serial();
        // Resident set first: the peak read after it can only be larger.
        let rss = rss_mib();
        assert!(rss > 0.0 && peak_rss_mib() >= rss);
        assert!(cpu_s() >= 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mib();
        reset_peak_rss();
        assert!(peak_rss_mib() < before, "the reset did not lower VmHWM");
    }

    #[test]
    fn kernel_covers_half_the_sample() {
        let pass = kernel_pass_s();
        assert!(pass > 0.0);
        // A sample far shorter than a pass still gets one pass; a long one
        // gets several, and their mean is a pass time, not their sum.
        assert!(kernel_s(0.0) > 0.0);
        assert!(kernel_s(8.0 * pass) < 4.0 * pass);
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_num(1.2034567891), "1.2034567891");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_ne!(digest("a"), digest("b"));
    }
}
