"""Suite-wide set-up: the whole run keeps numpy's and scipy's OpenBLAS on
one thread, as a study does (`dpg_elast.study.single_blas_thread`)."""
import pytest

from dpg_elast.study import single_blas_thread


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    with single_blas_thread():
        yield
