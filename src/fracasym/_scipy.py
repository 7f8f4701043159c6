"""scipy's `quad` and `brentq`, imported on first call.

Importing scipy.integrate costs about half a second, and only the bound
checks and the improper-tail checks need it (`brentq` serves
`bounds.bihari_inverse` alone), so a run that reaches none of them never
loads scipy.
"""


def quad(*args, **kwargs):
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)
