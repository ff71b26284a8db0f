"""Context-length arithmetic for long-video history.

Prints the token budget of an uncompressed minute of 832x480 video and
the compressed budgets for several encoder rates, reproducing the
trade-off that motivates history compression.
"""

import dataclasses

from memctx import metrics


def main():
    spec = metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=60)
    rows = metrics.budget_table(spec, ((2, 2, 1), (2, 2, 2), (4, 4, 2), (8, 8, 4)))
    print(f"60 s of 832x480 @ 24 fps, VAE 16x spatial / 4x temporal:")
    print(f"  uncompressed context length: {rows[0]['uncompressed']:,} tokens\n")

    print(f"{'rate':>8} {'tokens':>10} {'reduction':>10}")
    for row in rows:
        print(f"{row['rate']:>8} {row['tokens']:>10,} {row['reduction']:>9.1f}x")

    (short,) = metrics.budget_table(dataclasses.replace(spec, duration_s=20), [(4, 4, 2)])
    print(f"\n20 s at 4x4x2: {short['tokens']:,} tokens — short enough to attend over.")


if __name__ == "__main__":
    main()
