"""Golden output of ``qhagg check``: full stdout and exit code.

Each case runs ``cli.main`` in process and compares every byte it prints
with the text recorded here, so a refactor of the checks cannot move a
digit, a witness or a reason without this file failing. The cases cover
the scaling law with power and step psi (closed-form, expression and
unbounded phi; passing and refuted; a power psi whose multiplier
underflows to 0; a sweep of several chunks), the aggregation check, and
classify on each class and each kind of refutation, with and without
``--tol``.
"""

from __future__ import annotations

import shlex

import pytest

from qhagg import cli

GOLDEN = [
    ("--fn product --mode qh --psi power:c=4 --phi x^2 --grid 30", 0,
     "quasi-homogeneity psi=power:c=4 phi=x^2: max residual 1.1102230246251565e-16 at "
     "(0.5666666666666667, 0.9666666666666667, 0.9666666666666667) (grid n=30, tol=1e-09) "
     "-> pass\n"
     "RESULT pass max_residual=1.1102230246251565e-16\n"),
    # a defect of size 1e-7 in the x-section: the expression phi is held to
    # the same tolerance as the closed form x^2, so it is refuted
    ("--expr2d product --ux 'x+0.0000001*x^2*(1-x)' --mode qh --psi power:c=4 --phi x^2 "
     "--grid 50", 1,
     "quasi-homogeneity psi=power:c=4 phi=x^2: max residual 1.0535823991020266e-08 at "
     "(0.74, 1.0, 1.0) (grid n=50, tol=1e-09) -> FAIL\n"
     "RESULT fail max_residual=1.0535823991020266e-08\n"),
    ("--fn product --mode qh --psi power:c=1 --grid 30", 1,
     "quasi-homogeneity psi=power:c=1 phi=x: max residual 0.25 at (0.5, 1.0, 1.0) "
     "(grid n=30, tol=1e-09) -> FAIL\n"
     "RESULT fail max_residual=0.25\n"),
    ("--fn product --mode qh --psi power:c=1 --grid 30 --tol 0.25", 0,
     "quasi-homogeneity psi=power:c=1 phi=x: max residual 0.25 at (0.5, 1.0, 1.0) "
     "(grid n=30, tol=0.25) -> pass\n"
     "RESULT pass max_residual=0.25\n"),
    # (1/12)^400 is exactly 0: the lowest lam rows have multiplier 0
    ("--fn product --mode qh --psi power:c=400 --phi x^2 --grid 12", 1,
     "quasi-homogeneity psi=power:c=400 phi=x^2: max residual 0.8402777500900177 at "
     "(0.9166666666666666, 1.0, 1.0) (grid n=12, tol=1e-09) -> FAIL\n"
     "RESULT fail max_residual=0.8402777500900177\n"),
    # 101^3 lanes: the sweep runs in several chunks
    ("--fn harmonic_min --mode qh --psi power:c=2 --phi x^3 --grid 100", 1,
     "quasi-homogeneity psi=power:c=2 phi=x^3: max residual 0.1481404746557165 at "
     "(0.3, 1.0, 1.0) (grid n=100, tol=1e-09) -> FAIL\n"
     "RESULT fail max_residual=0.1481404746557165\n"),
    ("--fn harmonic_min --mode qh --psi power:c=1 --phi x/(1-x) --phi-b inf --grid 30", 1,
     "quasi-homogeneity psi=power:c=1 phi=x/(1-x): max residual 0.9666666666666667 at "
     "(0.03333333333333333, 1.0, 1.0) (grid n=30, tol=1e-09) -> FAIL\n"
     "RESULT fail max_residual=0.9666666666666667\n"),
    ("--fn flat --alpha 0.2 --beta 0.7 --mode qh --psi step0 --grid 30", 0,
     "quasi-homogeneity psi=step0 phi=x: max residual 0.0 at (0.0, 0.0, 0.0) "
     "(grid n=30, tol=1e-09) -> pass\n"
     "RESULT pass max_residual=0.0\n"),
    ("--fn drastic --mode qh --psi step1 --phi x^2 --grid 30", 0,
     "quasi-homogeneity psi=step1 phi=x^2: max residual 0.0 at (0.0, 0.0, 0.0) "
     "(grid n=30, tol=1e-09) -> pass\n"
     "RESULT pass max_residual=0.0\n"),
    ("--fn product --mode qh --psi step1 --grid 30", 1,
     "quasi-homogeneity psi=step1 phi=x: max residual 0.9344444444444444 at "
     "(0.9666666666666667, 1.0, 1.0) (grid n=30, tol=1e-09) -> FAIL\n"
     "RESULT fail max_residual=0.9344444444444444\n"),
    ("--fn product --mode agg --grid 30", 0,
     "boundary A(0,0)=0 and A(1,1)=1: ok\n"
     "values within [0,1]: ok\n"
     "nondecreasing in each argument: ok\n"
     "max violation 0.0 (grid n=30, tol=1e-09)\n"
     "RESULT pass max_residual=0.0\n"),
    ("--expr2d mean --ux 1-x --mode agg --grid 30", 1,
     "boundary A(0,0)=0 and A(1,1)=1: FAIL\n"
     "values within [0,1]: ok\n"
     "nondecreasing in each argument: FAIL\n"
     "first violation: A(0,0)=0.5, expected 0\n"
     "max violation 0.5 (grid n=30, tol=1e-09)\n"
     "RESULT fail max_residual=0.5\n"),
    ("--expr2d mean --ux 1-x --mode agg --grid 30 --tol 0.5", 0,
     "boundary A(0,0)=0 and A(1,1)=1: ok\n"
     "values within [0,1]: ok\n"
     "nondecreasing in each argument: ok\n"
     "max violation 0.5 (grid n=30, tol=0.5)\n"
     "RESULT pass max_residual=0.5\n"),
    ("--fn product --mode classify --grid 30", 0,
     "Class1 delta=x^2 (fitted)\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic diagonal_max_jump: 0.06555555555555559\n"
     "diagnostic scaling_law: 1.0547118733938987e-14\n"
     "RESULT pass max_residual=1.0547118733938987e-14\n"),
    ("--triple f=x^2 g=x h=2*x/(1+x) --mode classify --grid 40", 0,
     "Class1 delta=x^2 (fitted)\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic diagonal_max_jump: 0.04937500000000006\n"
     "diagnostic scaling_law: 1.1934897514720433e-14\n"
     "RESULT pass max_residual=1.1934897514720433e-14\n"),
    ("--fn flat --alpha 0.2 --beta 0.7 --mode classify --grid 30", 0,
     "Class2 alpha=0.2 beta=0.7\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic class2_formula: 0.0\n"
     "RESULT pass max_residual=0.0\n"),
    ("--fn boundary_only --g x^2 --h x --mode classify --grid 30", 0,
     "Class3 g=x^2 (fitted) h=x (fitted)\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic class3_formula: 0.0\n"
     "RESULT pass max_residual=0.0\n"),
    ("--expr2d mean --ux 1-x --mode classify --grid 30", 1,
     "NotQuasiHomogeneous witness=(lam=1.0, x=0.0, y=0.0, residual=0.5)\n"
     "reason: not an aggregation function: A(0,0)=0.5, expected 0\n"
     "diagnostic aggregation: 0.5\n"
     "RESULT fail max_residual=0.5\n"),
    ("--expr2d bounded_sum --mode classify --grid 30", 1,
     "NotQuasiHomogeneous witness=(lam=0.5, x=0.5333333333333333, y=0.5333333333333333, "
     "residual=0.0)\n"
     "reason: diagonal is not strictly increasing: delta(0.5)=1.0, "
     "delta(0.5333333333333333)=1.0\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic diagonal_max_jump: 0.06666666666666676\n"
     "RESULT fail max_residual=0.0\n"),
    ("--expr2d mean --ux x^2 --mode classify --grid 30", 1,
     "NotQuasiHomogeneous witness=(lam=0.5, x=1.0, y=0.0, residual=0.07725424859373686)\n"
     "reason: diagonal is bijective but the scaling law with psi = id, "
     "phi = diagonal_inv fails\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic diagonal_max_jump: 0.0494444444444444\n"
     "diagnostic scaling_law: 0.07725424859373686\n"
     "RESULT fail max_residual=0.07725424859373686\n"),
    ("--expr2d mean --ux x^2 --mode classify --grid 30 --tol 0.1", 0,
     "Class1 delta=(sampled)\n"
     "diagnostic aggregation: 0.0\n"
     "diagnostic diagonal_max_jump: 0.0494444444444444\n"
     "diagnostic scaling_law: 0.07725424859373686\n"
     "RESULT pass max_residual=0.07725424859373686\n"),
]


@pytest.mark.parametrize("args,code,stdout", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_check_output_is_golden(capsys, args, code, stdout):
    assert cli.main(["check", *shlex.split(args)]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""
