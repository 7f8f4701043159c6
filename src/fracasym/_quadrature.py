"""Adaptive quadrature on a finite interval, in pure Python.

`quad` is QUADPACK's qags (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, 1983): 21-point Gauss-Kronrod panels, bisection of the panel with
the largest error estimate, and Wynn's epsilon algorithm over the sequence
of panel sums.  The extrapolation is what makes integrable endpoint
singularities such as s^-0.99 converge: bisection alone ends 23 % short of
that integral in the 200 panels allowed.  Every quadrature of the package
asks for the one tolerance below, so it is fixed here.

Every integrand of the package is a Python closure, so a scalar loop costs
little beside the calls into it.  The routines follow the Fortran closely,
1-based panel tables included, so that they can be read against it.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

__all__ = ["quad"]

_EPS = 2.220446049250313e-16     # spacing of floats at 1
_TINY = 2.2250738585072014e-308  # smallest normal float
_HUGE = 1.7976931348623157e308   # largest float

# the requested accuracy max(_EPSABS, _EPSREL |integral|), in at most _LIMIT panels
_EPSABS = 1e-14
_EPSREL = 1e-11
_LIMIT = 200

# The 21-point Kronrod abscissae on [-1, 1] from the end inwards, and their
# weights; the odd entries are the 10-point Gauss abscissae, with weights _WG.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525048000, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# qags's exit codes 1-5, as quad warns of them
_TROUBLE = ("",
            "the panel limit was reached",
            "roundoff error prevents the requested tolerance",
            "the integrand behaves extremely badly at some point of the range",
            "roundoff error in the extrapolation table prevents convergence",
            "the integral is probably divergent, or slowly convergent")


def quad(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(integral of f over the finite [a, b], error estimate) to
    max(_EPSABS, _EPSREL |integral|) in at most _LIMIT panels.

    Where the tolerance is not met (the panel limit, roundoff, a divergent
    integral) a RuntimeWarning says why and the estimate is returned.  An
    exception of f propagates unchanged.
    """
    value, error, ier = _qags(f, a, b)
    if ier:
        warnings.warn(f"quad over [{a:g}, {b:g}]: {_TROUBLE[ier]}; the estimate "
                      f"{value:.17g} has error estimate {error:.3g}",
                      RuntimeWarning, stacklevel=2)
    return value, error


def _qk21(f, a, b):
    """QUADPACK dqk21 on [a, b]: (Kronrod estimate, error estimate,
    integral of |f|, integral of |f - mean|)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in range(5):  # the Gauss abscissae
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fv1[jtw] = fval1 = f(centr - absc)
        fv2[jtw] = fval2 = f(centr + absc)
        fsum = fval1 + fval2
        resg += _WG[j] * fsum
        resk += _WGK[jtw] * fsum
        resabs += _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):  # the Kronrod abscissae in between
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fv1[jtwm1] = fval1 = f(centr - absc)
        fv2[jtwm1] = fval2 = f(centr + absc)
        resk += _WGK[jtwm1] * (fval1 + fval2)
        resabs += _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min before the power, which equals QUADPACK's min after it and cannot overflow
        abserr = resasc * min(1.0, 200.0 * abserr / resasc) ** 1.5
    if resabs > _TINY / (50.0 * _EPS):
        abserr = max(_EPS * 50.0 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qags(f, a, b):
    """QUADPACK dqagse: (result, abserr, ier), ier 0 when the tolerance was met."""
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(_EPSABS, _EPSREL * dres)
    ier = 0
    if abserr <= 100.0 * _EPS * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # panel tables indexed 1.._LIMIT, the extrapolation table 1..52
    alist = [0.0] * (_LIMIT + 1)
    blist = [0.0] * (_LIMIT + 1)
    rlist = [0.0] * (_LIMIT + 1)
    elist = [0.0] * (_LIMIT + 1)
    iord = [0] * (_LIMIT + 1)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _HUGE
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPS) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    converged = False  # errsum met the tolerance: the result is the panel sum

    for last in range(2, _LIMIT + 1):
        # bisect the panel with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(_EPSABS, _EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(a2) + 1000.0 * _TINY):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            converged = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the panel to bisect next is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # bisect the larger panels first while they hold errors above ertest
            jupbnd = last if last <= 2 + _LIMIT // 2 else _LIMIT + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # go on bisecting the smallest panels
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    # dqagse's labels 100-130: keep the extrapolated result or sum the panels
    # (fsum: the same in every Python version, where sum changed in 3.12)
    if converged or abserr == _HUGE:
        result, abserr = math.fsum(rlist[1:last + 1]), errsum
    else:
        test = True  # the divergence test
        if ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                use_sum = abserr / abs(result) > errsum / abs(area)
            else:
                use_sum = abserr > errsum
                test = area != 0.0
            if use_sum:
                result, abserr, test = math.fsum(rlist[1:last + 1]), errsum, False
        if test and (ksgn == 1 or max(abs(result), abs(area)) > 0.01 * defabs):
            if area == 0.0 or not 0.01 <= result / area <= 100.0 or errsum > abs(area):
                ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """QUADPACK dqpsrt: keep iord ordered by decreasing error estimate after
    a bisection (panels maxerr and last); returns the next (maxerr, errmax,
    nrmax).  Only as many entries are kept in order as bisections remain."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a bisection that raised the error moves maxerr up the list
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last if last <= _LIMIT // 2 + 2 else _LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert maxerr here, then last from the bottom up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                    break
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """QUADPACK dqelg, Wynn's epsilon algorithm on epstab[1..n] (the panel
    sums so far); returns (n, result, abserr, nres) and updates epstab and
    res3la, the last three results, in place."""
    nres += 1
    abserr = _HUGE
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _HUGE
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPS
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPS
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPS
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements nearly equal: drop part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if epsinf <= 1e-4:
            n = i + i - 1  # irregular behaviour: drop part of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _HUGE
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres
