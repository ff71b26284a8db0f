"""Context-length arithmetic for long-video history.

Prints the token budget of an uncompressed minute of 832x480 video and
the compressed budgets for several encoder rates, reproducing the
trade-off that motivates history compression.
"""

import warnings

from memctx import metrics

# non-tiling rates fall back to total/volume accounting with a warning;
# that is exactly the approximation this demo is illustrating
warnings.filterwarnings("ignore", message="rate .* does not tile")


def main():
    spec = metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=60)
    report = metrics.context_length(spec, exact=True)
    print(f"60 s of 832x480 @ 24 fps, VAE 16x spatial / 4x temporal:")
    print(f"  uncompressed context length: {report.uncompressed:,} tokens\n")

    print(f"{'rate':>8} {'tokens':>10} {'reduction':>10}")
    for rate in ((2, 2, 1), (2, 2, 2), (4, 4, 2), (8, 8, 4)):
        row = metrics.context_length(
            metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=60, rate=rate)
        )
        tokens = row.compressed
        name = "x".join(str(r) for r in rate)
        print(f"{name:>8} {tokens:>10,} {report.uncompressed / tokens:>9.1f}x")

    short = metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=20, rate=(4, 4, 2))
    tokens = metrics.context_length(short).compressed
    print(f"\n20 s at 4x4x2: {tokens:,} tokens — short enough to attend over.")


if __name__ == "__main__":
    main()
