//! The `tkdq` command table — the single source of truth for CLI help.
//!
//! The binary's `usage()` output is generated from [`COMMANDS`] by
//! [`usage_text`], and the README's command table is checked against the
//! same array by `tests/docs_sync.rs`, so the three surfaces (binary,
//! README, docs) cannot drift apart: adding or renaming a command here
//! updates the help text and fails the sync test until the README
//! follows.

/// One `tkdq` subcommand: its name, a one-line summary (used by the
/// README table), and pre-wrapped usage lines (used by `tkdq help`).
pub struct CommandHelp {
    /// Subcommand name as typed (`tkdq <name> …`).
    pub name: &'static str,
    /// One-line description for command tables.
    pub summary: &'static str,
    /// Usage lines, already wrapped; the first is the synopsis, the
    /// rest are indented option/detail lines.
    pub usage: &'static [&'static str],
}

/// Every `tkdq` subcommand, in help order.
pub const COMMANDS: &[CommandHelp] = &[
    CommandHelp {
        name: "info",
        summary: "dataset statistics (size, missing rate, per-dim cardinality)",
        usage: &["tkdq info <FILE> [--labeled]"],
    },
    CommandHelp {
        name: "build",
        summary: "persist the bitmap indexes to an on-disk snapshot",
        usage: &[
            "tkdq build <FILE> --out SNAP [--bins auto|X] [--compact-threshold F] [--labeled]",
        ],
    },
    CommandHelp {
        name: "query",
        summary: "answer a top-k dominating query (flags or a TKDQL statement)",
        usage: &[
            "tkdq query <FILE>|--index SNAP --k K [--algorithm naive|esb|ubb|big|ibig]",
            "     [--bins auto|X] [--subspace 0,2,5] [--labeled] [--stats]",
            "     (--index serves big|ibig from a snapshot; bins/subspace need the file)",
            "tkdq query -e \"SELECT TOP k DOMINATING [FROM 'FILE'] …\" [FILE|--index SNAP]",
            "     (TKDQL statement; the target is the FROM clause, the positional",
            "      file, or the snapshot — see docs/TKDQL.md; EXPLAIN prints the plan)",
        ],
    },
    CommandHelp {
        name: "repl",
        summary: "interactive TKDQL shell over a dataset file or snapshot",
        usage: &[
            "tkdq repl <FILE>|--index SNAP [--labeled]",
            "     (one statement per line; \\q quits; errors keep the session alive)",
        ],
    },
    CommandHelp {
        name: "update",
        summary: "apply an update script through the dynamic engine, then query",
        usage: &[
            "tkdq update <FILE>|--index SNAP --ops OPS --k K [--algorithm big|ibig]",
            "     [--bins auto|X] [--compact-threshold F] [--labeled] [--stats]",
            "     (OPS lines: insert [LABEL] v1,v2,… | delete ID | set ID DIM VALUE|-;",
            "      --index loads the snapshot, applies OPS, and rewrites it in place)",
        ],
    },
    CommandHelp {
        name: "skyline",
        summary: "skyline / k-skyband of an incomplete dataset",
        usage: &["tkdq skyline <FILE> [--band K] [--labeled]"],
    },
    CommandHelp {
        name: "generate",
        summary: "synthetic incomplete dataset (IND/AC/CO) to stdout",
        usage: &[
            "tkdq generate [--n N] [--dims D] [--dist ind|ac|co]",
            "     [--missing R] [--cardinality C] [--seed S]",
        ],
    },
    CommandHelp {
        name: "serve",
        summary: "long-running TCP query service over a snapshot",
        usage: &[
            "tkdq serve --index SNAP [--addr HOST:PORT] [--threads T] [--max-queue N]",
            "     [--batch-max N] [--request-timeout-ms M] [--io-timeout-ms M] [--no-rewrite]",
            "     [--window N]  (cap live objects; oldest age out per update batch)",
        ],
    },
    CommandHelp {
        name: "cluster",
        summary: "multi-process sharded cluster: shard workers and a coordinator",
        usage: &[
            "tkdq cluster worker [--addr HOST:PORT]",
            "     (host shard snapshots assigned over the v5 cluster plane; prints",
            "      `worker on ADDR` once listening)",
            "tkdq cluster query <FILE> --workers A1,A2,… --k K [--algorithm big|ibig]",
            "     [--shards S] [--dir DIR] [--ops OPS] [--handoff SHARD:WORKER]",
            "     [--labeled] [--stats]",
            "     (seed DIR with S id-range shard snapshots, assign them across the",
            "      workers, apply OPS through the routed single-writer path, then",
            "      answer bit-identically to the in-process engines)",
        ],
    },
];

/// The full `tkdq help` text, generated from [`COMMANDS`].
pub fn usage_text() -> String {
    let mut out = String::from(
        "tkdq — top-k dominating queries on incomplete data\n\n\
         Usage:\n",
    );
    for cmd in COMMANDS {
        for line in cmd.usage {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str(
        "\nFiles are comma/whitespace separated, `-` for missing, `#` comments.\n\
         Values are smaller-is-better. The TKDQL language is specified in\n\
         docs/TKDQL.md; the wire protocol in docs/WIRE_PROTOCOL.md.",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_synopsis_names_its_command() {
        for cmd in COMMANDS {
            assert!(!cmd.usage.is_empty(), "{} has no usage", cmd.name);
            assert!(
                cmd.usage[0].starts_with(&format!("tkdq {}", cmd.name)),
                "{}: synopsis {:?} does not lead with the command",
                cmd.name,
                cmd.usage[0]
            );
            assert!(!cmd.summary.is_empty());
        }
    }

    #[test]
    fn usage_text_covers_every_command() {
        let text = usage_text();
        for cmd in COMMANDS {
            assert!(text.contains(&format!("tkdq {}", cmd.name)), "{}", cmd.name);
        }
        assert!(text.contains("docs/TKDQL.md"));
    }
}
