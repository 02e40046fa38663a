"""Recompute the cached partition table used by the benchmark's checks.

    python3 perfbench/refresh_refs.py

Writes p(0..refs.PARTITION_MAX), one per line, to
perfbench/data/partitions.txt.  The values come from the coin-style
dynamic program in refs.py, which shares no code with certiprob; it
takes a few seconds, which is why runs read the table instead.
"""

from refs import PARTITION_MAX, PARTITION_TABLE, partitions_coin_dp


def main():
    table = partitions_coin_dp(PARTITION_MAX)
    PARTITION_TABLE.parent.mkdir(exist_ok=True)
    PARTITION_TABLE.write_text("\n".join(map(str, table)) + "\n")
    print(f"wrote p(0..{PARTITION_MAX}) to {PARTITION_TABLE}")


if __name__ == "__main__":
    main()
