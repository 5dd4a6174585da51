//! Thread accounting and host facts from `/proc` (Linux only; the
//! callers stop the run when any of it is missing rather than print
//! zeros).

use std::fs;

/// Per-thread scheduler accounting, summed over the threads of one role.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sched {
    /// Time on a CPU, ns.
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    pub wait_ns: u64,
    /// Voluntary context switches (the thread blocked).
    pub voluntary_switches: u64,
}

impl Sched {
    pub fn since(&self, earlier: &Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            voluntary_switches: self.voluntary_switches.saturating_sub(earlier.voluntary_switches),
        }
    }

    fn add(&mut self, other: &Sched) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
        self.voluntary_switches += other.voluntary_switches;
    }
}

/// Who a thread works for, from its `comm`. The product names its own
/// threads; the benchmark names the ones it spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Reactor,
    Shard,
    Accept,
    Load,
    Other,
}

/// `comm` holds at most 15 bytes, so `apcache-reactor-0` reads
/// `apcache-reactor`.
pub fn role_of(comm: &str) -> Role {
    let comm = comm.trim_end();
    if comm.starts_with("apcache-reactor") {
        Role::Reactor
    } else if comm.starts_with("apcache-shard") {
        Role::Shard
    } else if comm.starts_with(ACCEPT_THREAD) {
        Role::Accept
    } else if comm.starts_with(LOAD_THREAD_PREFIX) {
        Role::Load
    } else {
        Role::Other
    }
}

pub const ACCEPT_THREAD: &str = "bench-accept";
pub const LOAD_THREAD_PREFIX: &str = "bench-load";

/// `/proc/<pid>/task/<tid>/schedstat`: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some((run, wait))
}

/// A `name:\tvalue [unit]` line of `/proc/<pid>/status`.
pub fn status_field(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// One sample of every thread of this process, summed per role.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threads {
    pub reactor: Sched,
    pub shard: Sched,
    pub accept: Sched,
    pub load: Sched,
}

impl Threads {
    pub fn sample() -> Result<Threads, String> {
        let mut out = Threads::default();
        let tasks = fs::read_dir("/proc/self/task")
            .map_err(|e| format!("/proc/self/task is not readable ({e}): Linux only"))?;
        for task in tasks.flatten() {
            let dir = task.path();
            // A thread may exit between the listing and the reads.
            let Ok(comm) = fs::read_to_string(dir.join("comm")) else { continue };
            let sched_text = fs::read_to_string(dir.join("schedstat"))
                .map_err(|e| format!("{}/schedstat is not readable: {e}", dir.display()))?;
            let (run_ns, wait_ns) = parse_schedstat(&sched_text)
                .ok_or_else(|| format!("unparsable schedstat {sched_text:?}"))?;
            let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
            let sched = Sched {
                run_ns,
                wait_ns,
                voluntary_switches: status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
            };
            match role_of(&comm) {
                Role::Reactor => out.reactor.add(&sched),
                Role::Shard => out.shard.add(&sched),
                Role::Accept => out.accept.add(&sched),
                Role::Load => out.load.add(&sched),
                Role::Other => {}
            }
        }
        Ok(out)
    }

    /// Every server thread: reactor workers, shard actors, accept loop.
    pub fn server(&self) -> Sched {
        let mut total = self.reactor;
        total.add(&self.shard);
        total.add(&self.accept);
        total
    }

    pub fn since(&self, earlier: &Threads) -> Threads {
        Threads {
            reactor: self.reactor.since(&earlier.reactor),
            shard: self.shard.since(&earlier.shard),
            accept: self.accept.since(&earlier.accept),
            load: self.load.since(&earlier.load),
        }
    }
}

/// Peak resident set of this process, MiB.
pub fn vm_hwm_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status is not readable: {e}"))?;
    status_field(&status, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The filesystem type holding `path`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes it.
pub fn fs_type(path: &str, mountinfo: &str) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            let covers = path == mount_point
                || mount_point == "/"
                || path.strip_prefix(mount_point).is_some_and(|rest| rest.starts_with('/'));
            covers.then_some((mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The host facts recorded with every result.
pub fn host_facts(spool_dir: &str) -> Vec<(&'static str, String)> {
    let read = |path: &str| fs::read_to_string(path).unwrap_or_default().trim().to_string();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let fs = fs_type(spool_dir, &read("/proc/self/mountinfo")).unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", read("/proc/sys/kernel/osrelease")),
        ("spool_fs", fs),
        ("network", "loopback interface, not a link".to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_and_status_parse() {
        assert_eq!(parse_schedstat("45568 209640 2\n"), Some((45_568, 209_640)));
        assert_eq!(parse_schedstat("45568 209640"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        let status = "Name:\tbenchmark\nVmHWM:\t    1824 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(1_824));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn comm_maps_to_roles_despite_truncation() {
        assert_eq!(role_of("apcache-reactor\n"), Role::Reactor);
        assert_eq!(role_of("apcache-shard-1\n"), Role::Shard);
        assert_eq!(role_of("bench-accept\n"), Role::Accept);
        assert_eq!(role_of("bench-load-0\n"), Role::Load);
        assert_eq!(role_of("benchmark\n"), Role::Other);
    }

    #[test]
    fn live_sample_sees_this_process() {
        let handle = std::thread::Builder::new()
            .name(format!("{LOAD_THREAD_PREFIX}-t"))
            .spawn(|| {
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                let threads = Threads::sample().unwrap();
                assert!(threads.load.run_ns > 0, "a busy thread has run time");
            })
            .unwrap();
        handle.join().unwrap();
        assert!(vm_hwm_mib().unwrap() > 0.0);
    }

    #[test]
    fn fs_type_takes_the_longest_covering_mount() {
        let mountinfo = "22 1 254:0 / / rw - ext4 /dev/vda rw\n\
                         30 22 0:26 / /tmp rw - tmpfs tmpfs rw\n\
                         31 22 0:27 / /tmpfoo rw - xfs none rw\n";
        assert_eq!(fs_type("/tmp/spool", mountinfo).as_deref(), Some("tmpfs"));
        assert_eq!(fs_type("/root/repo/out", mountinfo).as_deref(), Some("ext4"));
        assert_eq!(fs_type("/tmpfoo", mountinfo).as_deref(), Some("xfs"));
    }
}
