//! What the kernel says about this process, read from `/proc` — the
//! benchmark's only view of CPU time, memory, threads and context
//! switches, taken from outside the program under test.
//!
//! Every parser is a pure function over the file's text so the fixtures
//! in the tests pin the formats; the readers below them are thin.

use std::fs;

/// The fields of `/proc/<pid>/stat` (or a task's) the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat {
    pub minor_faults: u64,
    /// User + system time in clock ticks (`USER_HZ`, 100 per second).
    pub cpu_ticks: u64,
    pub num_threads: u64,
}

/// Parse one `stat` line. The command name sits in parentheses and may
/// itself hold spaces and parentheses, so fields are counted from the
/// *last* `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); field n is at index n - 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        minor_faults: field(10)?,
        cpu_ticks: field(14)? + field(15)?,
        num_threads: field(20)?,
    })
}

/// On-CPU nanoseconds: the first field of a `schedstat` line
/// (`<run ns> <wait ns> <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The fields of `/proc/<pid>/status` (or a task's) the benchmark uses.
/// Memory lines are absent for kernel threads and zombies, hence `Option`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Status {
    /// CPUs the task may run on (`Cpus_allowed_list`), ascending.
    pub cpus_allowed: Vec<usize>,
    pub vm_hwm_kb: Option<u64>,
    pub threads: Option<u64>,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut status = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = value
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok());
        match key {
            "Cpus_allowed_list" => status.cpus_allowed = parse_cpu_list(value),
            "VmHWM" => status.vm_hwm_kb = number,
            "Threads" => status.threads = number,
            "voluntary_ctxt_switches" => status.voluntary_switches = number.unwrap_or(0),
            "nonvoluntary_ctxt_switches" => status.involuntary_switches = number.unwrap_or(0),
            _ => {}
        }
    }
    status
}

/// A kernel CPU list such as `0-1,4,6-7`; malformed parts are skipped.
pub fn parse_cpu_list(text: &str) -> Vec<usize> {
    let mut cpus: Vec<usize> = text
        .trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect();
    cpus.sort_unstable();
    cpus.dedup();
    cpus
}

/// Thread ids out of the entry names of a `task/` directory; anything
/// that is not a number is ignored.
pub fn parse_task_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<u32> {
    let mut tids: Vec<u32> = names.into_iter().filter_map(|n| n.parse().ok()).collect();
    tids.sort_unstable();
    tids
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`); no libc is available to ask `gettid`.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

fn task_ids() -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let names: Vec<String> = dir
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    parse_task_names(names.iter().map(String::as_str))
}

fn task_file(tid: u32, name: &str) -> Option<String> {
    // A thread may exit between the directory listing and this read.
    fs::read_to_string(format!("/proc/self/task/{tid}/{name}")).ok()
}

/// Nanoseconds per `stat` clock tick (`USER_HZ` is 100 on Linux).
const TICK_NS: u64 = 10_000_000;

/// On-CPU nanoseconds summed over every thread of the process except
/// `skip` (the load generator, whose wait-spin is not the middleware's
/// cost). `schedstat` where the kernel provides it, `stat` ticks
/// otherwise.
pub fn cpu_ns_except(skip: Option<u32>) -> u64 {
    task_ids()
        .into_iter()
        .filter(|tid| Some(*tid) != skip)
        .filter_map(|tid| {
            task_file(tid, "schedstat")
                .as_deref()
                .and_then(parse_schedstat)
                .or_else(|| {
                    let stat = parse_stat(&task_file(tid, "stat")?)?;
                    Some(stat.cpu_ticks * TICK_NS)
                })
        })
        .sum()
}

/// Voluntary + involuntary context switches summed over every thread.
pub fn context_switches() -> u64 {
    task_ids()
        .into_iter()
        .filter_map(|tid| task_file(tid, "status"))
        .map(|text| {
            let s = parse_status(&text);
            s.voluntary_switches + s.involuntary_switches
        })
        .sum()
}

pub fn process_status() -> Status {
    fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t))
        .unwrap_or_default()
}

/// Status of the calling thread alone (its own affinity).
#[cfg(test)]
pub fn thread_status() -> Status {
    fs::read_to_string("/proc/thread-self/status")
        .map(|t| parse_status(&t))
        .unwrap_or_default()
}

pub fn process_stat() -> Stat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Real lines from a 6.x kernel; the comm field is made hostile.
    const STAT: &str = "8954 (rossf (bench) x) S 8949 8954 8949 0 -1 4194304 1234 0 7 0 \
        49 13 0 0 20 0 11 0 243939 12345678 2222 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 \
        17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(
            s,
            Stat {
                minor_faults: 1234,
                cpu_ticks: 49 + 13,
                num_threads: 11,
            }
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None, "truncated line");
    }

    #[test]
    fn schedstat_first_field_is_on_cpu_time() {
        assert_eq!(
            parse_schedstat("504544076 15803935 53\n"),
            Some(504_544_076)
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_lines_are_picked_by_key() {
        let text = "Name:\trossf-benchmark\nVmPeak:\t  999 kB\nVmHWM:\t   41234 kB\n\
            VmRSS:\t   40000 kB\nThreads:\t9\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n\
            voluntary_ctxt_switches:\t20\nnonvoluntary_ctxt_switches:\t32\n";
        let s = parse_status(text);
        assert_eq!(s.cpus_allowed, vec![0, 1]);
        assert_eq!(s.vm_hwm_kb, Some(41234));
        assert_eq!(s.threads, Some(9));
        assert_eq!(s.voluntary_switches + s.involuntary_switches, 52);
        // A zombie task has no Vm lines.
        assert_eq!(parse_status("Name:\tx\nThreads:\t1\n").vm_hwm_kb, None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-1,4,6-7\n"), vec![0, 1, 4, 6, 7]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(parse_cpu_list("1,x,2-"), vec![1]);
    }

    #[test]
    fn task_names_keep_only_thread_ids() {
        assert_eq!(
            parse_task_names(["8960", "8954", ".", "..", "self", "12x"]),
            vec![8954, 8960]
        );
    }

    #[test]
    fn live_readers_see_this_process() {
        let tid = current_tid().expect("/proc/thread-self");
        assert!(task_ids().contains(&tid));
        assert!(process_status().threads.unwrap_or(0) >= 1);
        assert!(process_status().vm_hwm_kb.unwrap_or(0) > 0);
        // Everything but this thread has run for some time or none; the
        // call must simply not fail or count the skipped thread twice.
        assert!(cpu_ns_except(Some(tid)) <= cpu_ns_except(None));
    }
}
