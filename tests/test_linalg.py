import random

from cycbmw.fields import GF
from cycbmw.linalg import matmul


def test_matmul_no_int64_overflow_near_2_31():
    p = 2**31 - 1
    F = GF(p)
    assert matmul([[p - 1] * 4], [[p - 1]] * 4, F) == [[4]]
    rng = random.Random(31)
    A = [[rng.randrange(p) for _ in range(9)] for _ in range(3)]
    B = [[rng.randrange(p) for _ in range(2)] for _ in range(9)]
    want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
    assert matmul(A, B, F) == want
