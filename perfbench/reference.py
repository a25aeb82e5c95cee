"""The benchmark's yardstick for the speed of the host: fixed work, no mfal.

    python3 perfbench/reference.py

``run.py`` runs this in a fresh process after every timed operation and
reports times relative to it (see ``run.py``).  It does exact rational and
big-integer arithmetic and dict updates in pure Python, the kind of work mfal
does, with the same interpreter start-up, so a host that runs mfal slower
runs this slower too.  It imports nothing from mfal: a change to mfal must
not change the yardstick.
"""

from fractions import Fraction


def main():
    x, n, d = Fraction(1, 3), 1, {}
    for i in range(1, 12000):
        x += Fraction(i % 97, i % 89 + 1)
        n = (n * 1000003 + i) % (1 << 1021)
    for i in range(100000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return x, n, d


if __name__ == "__main__":
    main()
