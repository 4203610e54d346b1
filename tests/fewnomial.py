"""Reference scan for the per-window zero count bound, kept apart from the
check inside search_zeros so the tests can hold the search to it."""


def fewnomial_check(zeros, n: int, span: float) -> bool:
    """Fewer than n zeros in every horizontal window of height 0.999/span.

    A sum of n terms with frequency span a_n - a_1 admits fewer than n
    zeros in any horizontal strip strictly lower than 1/(a_n - a_1); this
    scans all anchored windows over the sorted imaginary parts, each zero
    repeated by its multiplicity.
    """
    h = 0.999 / span
    ims = sorted(z.location.imag for z in zeros for _ in range(z.multiplicity))
    j = 0
    for i in range(len(ims)):
        j = max(j, i)
        while j < len(ims) and ims[j] - ims[i] < h:
            j += 1
        if j - i >= n:
            return False
    return True
